//! The wait/wake path allocates nothing: a core stepped through 1 000
//! cycles, in turn idle → block → wake ended by a peer's write to its
//! wake eventfd, by a packet on an RX queue it watches and by the
//! timeout, and a round that hands a large request to a blocked peer,
//! wakes it and yields, makes no allocation on its own thread while
//! idle or handing over. A counting global allocator tallies each
//! thread's allocations, so the other tests of this binary may run
//! beside it, and neither the thread that wakes the core nor the
//! woken peer's round counts.

use crate::config::ThresholdMode;
use crate::server::{Core, PlanCache, ServerConfig, Shared, SERVER_HOST_ID, SPIN_ROUNDS};
use minos_net::VirtualTransport;
use minos_nic::{NicConfig, VirtualNic};
use minos_obs::ManualClock;
use minos_wire::frag::fragment_with_id;
use minos_wire::message::{Body, Message};
use minos_wire::packet::Packet;
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

/// What a cycle does: idle until the timeout ends its block, until a
/// wake does, or until a packet does; or hand a request over.
const TIMEOUT: u8 = 0;
const WAKE: u8 = 1;
const PACKET: u8 = 2;
const HANDOVER: u8 = 3;
/// The waker's standing order between blocks.
const IDLE: u8 = 4;

/// A single-frame request under `key` for RX queue 0.
fn request(key: u64, body: Body) -> Packet {
    let msg = Message {
        client_id: 1,
        request_id: key,
        client_ts_ns: 0,
        body,
    };
    let src = Endpoint::host(100, 20_000);
    let dst = Endpoint::host(SERVER_HOST_ID, UdpHeader::port_for_queue(0));
    synthesize(src, dst, fragment_with_id(key, &msg.encode()).remove(0))
}

#[test]
fn idle_block_and_wake_allocate_nothing() {
    const CYCLES: u64 = 1_000;
    // Two cores in standby under a 512 B static threshold: core 0 is
    // the only drainer of both RX queues, so it watches their doorbells
    // beside its wake eventfd, runs a GET of a missing key inline and
    // hands a 1 000 B PUT to core 1.
    let mut config = ServerConfig::for_test(2, 1_000);
    config.minos.threshold_mode = ThresholdMode::Static(512);
    let nic = Arc::new(VirtualNic::new(NicConfig::new(2)));
    let transport = Arc::new(VirtualTransport::new(Arc::clone(&nic)));
    let shared = Shared::new(&config, transport, ManualClock::default());
    let (cached, cached1) = (PlanCache::load(&shared, 0), PlanCache::load(&shared, 1));
    assert_eq!(cached.watch, [0, 1]);
    let get = request(7, Body::Get { key: 7 });
    let put = request(
        8,
        Body::Put {
            key: 8,
            value: bytes::Bytes::from(vec![7u8; 1_000]),
            ttl_ms: 0,
        },
    );
    // The waker ends the core's next block as `order` says, then goes
    // back to idle.
    let order = &AtomicU8::new(IDLE);
    let (mut replies, mut drained) = (Vec::new(), Vec::new());
    let mut allocated = 0;
    // Packet cycles whose packet landed only after the block timed out,
    // so no wake ended it.
    let mut late = 0;
    let (shared, nic, get) = (&shared, &nic, &get);
    let stats = |core: usize| shared.stats[core].snapshot();
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
                if !shared.wake(0) {
                    continue; // the block timed out first: wake the next
                }
            } else {
                nic.deliver_packet(get.clone());
            }
            order.store(IDLE, Ordering::Release);
        });
        let (mut core, mut core1) = (Core::new(shared, 0), Core::new(shared, 1));
        // Core 1 is blocked (it has no thread here): the round that
        // hands it the PUT wakes it and yields once. Returns the
        // allocations of that round.
        let mut hand_over = |core: &mut Core<'_, _, _>| {
            shared.parking[1].parked.store(true, Ordering::Relaxed);
            nic.deliver_packet(put.clone());
            let before = allocs();
            assert!(core.step(&cached), "the PUT was handed over");
            let allocated = allocs() - before;
            assert!(shared.parking[1].wake.drain(), "core 1 woken");
            assert!(core1.step(&cached1), "core 1 serves the PUT");
            nic.tx_drain(1, &mut replies, usize::MAX);
            replies.clear();
            allocated
        };
        // The ring's first push allocates the box its slot holds, which
        // every later push recycles.
        hand_over(&mut core);
        for cycle in 0..CYCLES {
            let how = [WAKE, PACKET, TIMEOUT, HANDOVER][cycle as usize % 4];
            if how == HANDOVER {
                allocated += hand_over(&mut core);
                continue;
            }
            if how != TIMEOUT {
                order.store(how, Ordering::Release);
            }
            // The run loop's rounds: each finds nothing (and so quiets
            // the doorbells), the last idle one blocks.
            for _ in 0..SPIN_ROUNDS {
                assert!(!core.step(&cached), "nothing to do yet");
                let before = allocs();
                core.idle(&cached);
                allocated += allocs() - before;
            }
            // A waker that is not scheduled before the block times out
            // acts on the next block instead.
            loop {
                let found = core.step(&cached);
                if found {
                    // The packet landed after a block timed out.
                    assert_eq!(how, PACKET, "cycle {cycle}: nothing to do yet");
                    late += 1;
                    break;
                }
                let wakes = stats(0).wakes;
                let before = allocs();
                core.idle(&cached);
                allocated += allocs() - before;
                if how == TIMEOUT || stats(0).wakes > wakes {
                    if how == PACKET {
                        assert!(core.step(&cached), "the block ended on the packet");
                    }
                    break;
                }
                assert!(Instant::now() < deadline, "cycle {cycle}: the waker acted");
            }
            if how == PACKET {
                nic.tx_drain(0, &mut drained, usize::MAX);
                drained.clear();
            }
            while order.load(Ordering::Acquire) != IDLE {
                assert!(Instant::now() < deadline, "cycle {cycle}: the waker acted");
                std::hint::spin_loop();
            }
            core.idle_rounds = 0;
        }
        order.store(TIMEOUT, Ordering::Release);
    });
    let (stats, stats1) = (stats(0), stats(1));
    let per_kind = CYCLES / 4;
    assert!(stats.parks >= 3 * per_kind, "every idle cycle blocked");
    // A wake or a packet ends a block as a wake, a timeout does not.
    assert_eq!(
        stats.wakes + late,
        2 * per_kind,
        "woken by a wake or a packet"
    );
    // A packet lands late only when the waker thread is not scheduled
    // within a block's 2 ms; an RX doorbell that failed to end a block
    // would make every packet cycle late.
    assert!(
        late < per_kind / 10,
        "{late} of {per_kind} packets ended no block"
    );
    assert_eq!(stats.ops, per_kind, "one GET per packet cycle");
    // One PUT per handover cycle, and the warm-up's.
    assert_eq!(stats.handoffs, per_kind + 1, "a PUT per handover cycle");
    assert_eq!(stats1.ops, per_kind + 1, "core 1 served every handoff");
    assert_eq!(stats.handovers, per_kind + 1, "every handoff woke core 1");
    assert_eq!(
        allocated, 0,
        "allocations while idle, blocked, woken or handing over"
    );
}
