//! Property tests for [`FaultTransport`] determinism: the same seed and
//! the same per-queue packet schedule must produce the same fault
//! decisions — delivered packets, delivered order, and fault counters —
//! regardless of batch geometry. This is the contract that makes a
//! chaos CI failure reproduce from its seed: bursts of any size present
//! packets in arrival order, and arrival order is the only input the
//! fault pipeline reads.

use bytes::Bytes;
use minos_net::{FaultProfile, FaultTransport, Transport, TransportStats};
use minos_wire::packet::{synthesize, synthesize_frame, Endpoint, Packet, TxPacket};
use minos_wire::TxFrame;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

const QUEUES: u16 = 2;

/// An in-memory inner transport with a scripted RX ring per queue and a
/// capture buffer for everything forwarded on TX — so the proptest
/// controls the exact packet schedule the fault pipeline sees.
struct Scripted {
    rx: Vec<Mutex<VecDeque<Packet>>>,
    tx: Vec<Mutex<Vec<Bytes>>>,
}

impl Scripted {
    fn new() -> Self {
        Scripted {
            rx: (0..QUEUES).map(|_| Mutex::new(VecDeque::new())).collect(),
            tx: (0..QUEUES).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn endpoint(queue: u16) -> Endpoint {
        Endpoint {
            mac: minos_wire::MacAddr([2, 0, 0, 0, 0, queue as u8]),
            ip: u32::from_be_bytes([127, 0, 0, 1]),
            port: 7000 + queue,
        }
    }

    fn load(&self, queue: u16, pkts: Vec<Packet>) {
        self.rx[queue as usize].lock().unwrap().extend(pkts);
    }

    fn forwarded(&self, queue: u16) -> Vec<Bytes> {
        self.tx[queue as usize].lock().unwrap().clone()
    }

    fn rx_remaining(&self, queue: u16) -> usize {
        self.rx[queue as usize].lock().unwrap().len()
    }
}

impl Transport for Scripted {
    fn num_queues(&self) -> u16 {
        QUEUES
    }

    fn rx_burst(&self, queue: u16, out: &mut Vec<Packet>, max: usize) -> usize {
        let mut ring = self.rx[queue as usize].lock().unwrap();
        let n = max.min(ring.len());
        out.extend(ring.drain(..n));
        n
    }

    fn tx_frames(&self, queue: u16, frames: &mut Vec<TxPacket>) -> usize {
        let mut sink = self.tx[queue as usize].lock().unwrap();
        let n = frames.len();
        for f in frames.drain(..) {
            sink.push(f.frame.to_contiguous().0);
        }
        n
    }

    fn local_endpoint(&self, queue: u16) -> Endpoint {
        Scripted::endpoint(queue)
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// Payload for message `i` on queue `q`: unique, so drops/dups/reorder
/// are all detectable in the delivered stream.
fn payload(q: u16, i: usize) -> Bytes {
    let mut v = vec![0u8; 8];
    v[..2].copy_from_slice(&q.to_be_bytes());
    v[2..6].copy_from_slice(&(i as u32).to_be_bytes());
    Bytes::from(v)
}

/// A profile with every count-domain fault dialed up and the quiescence
/// grace pushed far out, so release decisions are purely count-based
/// within the test run.
fn chaos_profile(seed: u64, drop: f64, dup: f64, reorder: u32, burst: u32) -> FaultProfile {
    let mut p = FaultProfile::parse(&format!(
        "drop={drop},dup={dup},reorder={reorder},burst={burst},seed={seed},reorder_hold_us=60000000",
    ))
    .expect("valid profile");
    p.rx.delay_us = 0;
    p.tx.delay_us = 0;
    p
}

/// Runs `schedule` through a fresh FaultTransport, pulling RX in chunks
/// of `rx_max` — the batch-geometry knob. Returns the delivered
/// per-queue payload streams plus the fault counters.
fn run_rx(
    profile: FaultProfile,
    schedule: &[(u16, usize)],
    feed_chunk: usize,
    rx_max: usize,
) -> (Vec<Vec<Bytes>>, minos_net::FaultStats) {
    let inner = Arc::new(Scripted::new());
    let ft = FaultTransport::new(Arc::clone(&inner), profile);
    let src = Scripted::endpoint(9);
    let mut delivered: Vec<Vec<Bytes>> = vec![Vec::new(); QUEUES as usize];
    // Drains queue `q` until a poll both finds the scripted ring empty
    // and releases nothing — a zero-return alone is not quiescence,
    // since a poll may admit packets into the hold buffer yet find none
    // eligible yet.
    let drain = |q: u16, delivered: &mut Vec<Bytes>| loop {
        let mut out = Vec::new();
        let released = ft.rx_burst(q, &mut out, rx_max);
        delivered.extend(out.into_iter().map(|p| p.payload));
        if released == 0 && inner.rx_remaining(q) == 0 {
            break;
        }
    };
    // Feed the scripted ring in slices and poll between slices, so the
    // pipeline sees packets arrive over multiple bursts.
    for chunk in schedule.chunks(feed_chunk.max(1)) {
        for &(q, i) in chunk {
            inner.load(
                q,
                vec![synthesize(src, Scripted::endpoint(q), payload(q, i))],
            );
        }
        for q in 0..QUEUES {
            drain(q, &mut delivered[q as usize]);
        }
    }
    // Final pass for anything released by the last admissions
    // (count-based releases only; the grace is parked a minute out).
    for q in 0..QUEUES {
        drain(q, &mut delivered[q as usize]);
    }
    (delivered, ft.fault_stats())
}

/// Same shape for the TX direction: push the schedule through
/// `tx_frames` in bursts of `tx_chunk` and capture what reaches the
/// inner transport.
fn run_tx(
    profile: FaultProfile,
    schedule: &[(u16, usize)],
    tx_chunk: usize,
) -> (Vec<Vec<Bytes>>, minos_net::FaultStats) {
    let inner = Arc::new(Scripted::new());
    let ft = FaultTransport::new(Arc::clone(&inner), profile);
    let src = Scripted::endpoint(9);
    let mut per_queue: Vec<Vec<TxPacket>> = vec![Vec::new(); QUEUES as usize];
    for &(q, i) in schedule {
        per_queue[q as usize].push(synthesize_frame(
            src,
            Scripted::endpoint(q),
            TxFrame::from_payload(payload(q, i)),
        ));
    }
    for (q, pkts) in per_queue.into_iter().enumerate() {
        for chunk in pkts.chunks(tx_chunk.max(1)) {
            let mut burst = chunk.to_vec();
            ft.tx_frames(q as u16, &mut burst);
        }
    }
    (
        (0..QUEUES).map(|q| inner.forwarded(q)).collect(),
        ft.fault_stats(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RX: identical schedule + identical seed ⇒ identical delivered
    /// streams and fault counters across every batch geometry
    /// (one-datagram pulls, mmsg-sized pulls, and different feed
    /// slicings).
    #[test]
    fn rx_decisions_ignore_batch_geometry(
        schedule in prop::collection::vec((0u16..QUEUES, 0usize..10_000), 1..120),
        seed in 0u64..1_000,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.3,
        reorder in 0u32..6,
        burst in 0u32..3,
    ) {
        let profile = chaos_profile(seed, drop, dup, reorder, burst);
        let baseline = run_rx(profile, &schedule, 7, 1);
        for (feed, max) in [(1, 1), (32, 32), (5, 3), (schedule.len(), 4096)] {
            let other = run_rx(profile, &schedule, feed, max);
            prop_assert_eq!(&baseline.0, &other.0,
                "delivered streams diverged at feed={} max={}", feed, max);
            prop_assert_eq!(baseline.1, other.1,
                "fault counters diverged at feed={} max={}", feed, max);
        }
    }

    /// TX: identical schedule + identical seed ⇒ identical forwarded
    /// streams regardless of how the sends were sliced into bursts.
    #[test]
    fn tx_decisions_ignore_burst_slicing(
        schedule in prop::collection::vec((0u16..QUEUES, 0usize..10_000), 1..120),
        seed in 0u64..1_000,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.3,
        reorder in 0u32..6,
        burst in 0u32..3,
    ) {
        let profile = chaos_profile(seed, drop, dup, reorder, burst);
        let baseline = run_tx(profile, &schedule, 1);
        for chunk in [2usize, 13, schedule.len()] {
            let other = run_tx(profile, &schedule, chunk);
            prop_assert_eq!(&baseline.0, &other.0,
                "forwarded streams diverged at chunk={}", chunk);
            prop_assert_eq!(baseline.1, other.1,
                "fault counters diverged at chunk={}", chunk);
        }
    }

    /// A noop profile is a true passthrough: everything delivered, in
    /// order, zero fault counters.
    #[test]
    fn noop_profile_is_transparent(
        schedule in prop::collection::vec((0u16..QUEUES, 0usize..10_000), 1..60),
    ) {
        let profile = FaultProfile::default();
        prop_assert!(profile.is_noop());
        let (delivered, stats) = run_rx(profile, &schedule, 16, 32);
        for q in 0..QUEUES {
            let expected: Vec<Bytes> = schedule.iter()
                .filter(|&&(sq, _)| sq == q)
                .map(|&(sq, i)| payload(sq, i))
                .collect();
            prop_assert_eq!(&delivered[q as usize], &expected);
        }
        prop_assert_eq!(stats, minos_net::FaultStats::default());
    }
}

/// The blackhole queue swallows everything addressed to it; other
/// queues are untouched.
#[test]
fn blackhole_swallows_one_queue() {
    let profile = FaultProfile::parse("blackhole=1,seed=3").expect("profile");
    let inner = Arc::new(Scripted::new());
    let ft = FaultTransport::new(Arc::clone(&inner), profile);
    let src = Scripted::endpoint(9);
    for q in 0..QUEUES {
        inner.load(
            q,
            (0..10)
                .map(|i| synthesize(src, Scripted::endpoint(q), payload(q, i)))
                .collect(),
        );
    }
    let mut out = Vec::new();
    while ft.rx_burst(0, &mut out, 64) > 0 {}
    assert_eq!(out.len(), 10, "queue 0 unaffected");
    let mut dead = Vec::new();
    while ft.rx_burst(1, &mut dead, 64) > 0 {}
    assert!(dead.is_empty(), "queue 1 is a dead core");
    assert_eq!(ft.fault_stats().rx_blackholed, 10);
}
