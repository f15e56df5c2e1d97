//! The wait/wake path allocates nothing: a core stepped through 1 000
//! idle → block → wake cycles, ended in turn by a peer's write to its
//! wake eventfd, by a packet on the RX queue it watches and by the
//! timeout, makes no allocation on its own thread while idle. A
//! counting global allocator tallies each thread's allocations, so the
//! other tests of this binary may run beside it, and the thread that
//! wakes the core does not count.

use crate::dispatch::DisciplineKind;
use crate::server::{Core, PlanCache, ServerConfig, Shared, SERVER_HOST_ID, SPIN_ROUNDS};
use minos_net::VirtualTransport;
use minos_nic::{NicConfig, VirtualNic};
use minos_obs::ManualClock;
use minos_wire::frag::fragment_with_id;
use minos_wire::message::{Body, Message};
use minos_wire::packet::{synthesize, Endpoint};
use minos_wire::udp::UdpHeader;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Counting;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counts left to keep.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every call is passed straight to `System`; the counting
// touches only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// What ends a block: nothing (the timeout), a wake, or a packet.
const TIMEOUT: u8 = 0;
const WAKE: u8 = 1;
const PACKET: u8 = 2;
/// The waker's standing order between blocks.
const IDLE: u8 = 3;

#[test]
fn idle_block_and_wake_allocate_nothing() {
    const CYCLES: u64 = 1_000;
    // One hkh core: the only drainer of RX queue 0, so it watches the
    // queue's doorbell beside its wake eventfd.
    let mut config = ServerConfig::for_test(1, 1_000);
    config.minos.discipline = DisciplineKind::Hkh;
    let nic = Arc::new(VirtualNic::new(NicConfig::new(1)));
    let transport = Arc::new(VirtualTransport::new(Arc::clone(&nic)));
    let shared = Shared::new(&config, transport, ManualClock::default());
    let cached = PlanCache::load(&shared, 0);
    assert_eq!(cached.watch, [0]);
    let get = {
        let msg = Message {
            client_id: 1,
            request_id: 1,
            client_ts_ns: 0,
            body: Body::Get { key: 7 },
        };
        let src = Endpoint::host(100, 20_000);
        let dst = Endpoint::host(SERVER_HOST_ID, UdpHeader::port_for_queue(0));
        synthesize(src, dst, fragment_with_id(1, &msg.encode()).remove(0))
    };
    // The waker ends the core's next block as `order` says, then goes
    // back to idle.
    let order = &AtomicU8::new(IDLE);
    let mut replies = Vec::new();
    let mut allocated = 0;
    let (shared, nic, get) = (&shared, &nic, &get);
    std::thread::scope(|s| {
        let deadline = Instant::now() + Duration::from_secs(60);
        s.spawn(move || loop {
            let how = order.load(Ordering::Acquire);
            if how == TIMEOUT || Instant::now() > deadline {
                return;
            }
            if how == IDLE || !shared.parking[0].parked.load(Ordering::Acquire) {
                std::hint::spin_loop();
                continue;
            }
            if how == WAKE {
                assert!(shared.wake(0), "the core was blocked");
            } else {
                nic.deliver_packet(get.clone());
            }
            order.store(IDLE, Ordering::Release);
        });
        let mut core = Core::new(shared, 0);
        for cycle in 0..CYCLES {
            let how = [WAKE, PACKET, TIMEOUT][cycle as usize % 3];
            if how != TIMEOUT {
                order.store(how, Ordering::Release);
            }
            // The run loop's rounds: each finds nothing (and so quiets
            // the doorbell), the last idle one blocks.
            for _ in 0..=SPIN_ROUNDS {
                assert!(!core.step(&cached), "nothing to do yet");
                let before = allocs();
                core.idle(&cached);
                allocated += allocs() - before;
            }
            if how == PACKET {
                assert!(core.step(&cached), "the block ended on the packet");
                nic.tx_drain(0, &mut replies, usize::MAX);
                replies.clear();
            }
            while order.load(Ordering::Acquire) != IDLE {
                assert!(Instant::now() < deadline, "cycle {cycle}: the waker acted");
                std::hint::spin_loop();
            }
            core.idle_rounds = 0;
        }
        order.store(TIMEOUT, Ordering::Release);
    });
    let stats = shared.stats[0].snapshot();
    assert_eq!(stats.parks, CYCLES, "every cycle blocked");
    // A wake or a packet ends a block as a wake, a timeout does not.
    let woken = (0..CYCLES).filter(|cycle| cycle % 3 != 2).count() as u64;
    assert_eq!(stats.wakes, woken, "woken by a wake or a packet");
    assert_eq!(stats.ops, CYCLES / 3, "one GET per packet cycle");
    assert_eq!(allocated, 0, "allocations while idle, blocked or woken");
}
