//! Per-core operation/packet counters.
//!
//! The paper's Figure 9 breaks server load down per core in two ways —
//! operations per second and packets per second. [`SharedCoreStats`] is
//! the datapath-friendly accumulator (relaxed atomics, written by the
//! owning core, snapshotted by the harness) and [`CoreStats`] the plain
//! snapshot the harness consumes.

use std::sync::atomic::{AtomicU64, Ordering};

/// A plain snapshot of one core's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// KV operations completed (GET + PUT).
    pub ops: u64,
    /// GET operations completed.
    pub get_ops: u64,
    /// PUT operations completed.
    pub put_ops: u64,
    /// Operations on large items completed.
    pub large_ops: u64,
    /// Network packets (datagrams) received by this core (from any RX
    /// queue).
    pub packets_rx: u64,
    /// Network packets (datagrams) transmitted by this core.
    pub packets_tx: u64,
    /// Wire frames those received datagrams carried: a datagram is a
    /// sequence of frames, so `frames_rx / packets_rx` is how many
    /// requests shared one.
    pub frames_rx: u64,
    /// Wire frames the transmitted datagrams carried.
    pub frames_tx: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Payload bytes transmitted.
    pub bytes_tx: u64,
    /// Requests this core handed off to a large core's software queue.
    pub handoffs: u64,
    /// Requests this core stole from another core (HKH+WS only).
    pub steals: u64,
    /// Times this core parked its thread after a run of idle rounds.
    pub parks: u64,
    /// Parks ended by a wake (a push onto this core's queue, a plan
    /// publication or shutdown) rather than by the park's timeout.
    pub wakes: u64,
    /// Poll rounds after which this core, having woken a blocked peer
    /// it pushed work to, yielded its CPU to it once.
    pub handovers: u64,
    /// Nanoseconds those yields took, from the call to the return: the
    /// time this core's thread left to the cores it woke.
    pub handover_ns: u64,
}

impl CoreStats {
    /// Packets processed in total (rx + tx), the cost measure used by the
    /// paper's load-balance analysis.
    pub fn packets(&self) -> u64 {
        self.packets_rx + self.packets_tx
    }

    /// Element-wise sum.
    pub fn merged(mut self, other: &CoreStats) -> CoreStats {
        self.ops += other.ops;
        self.get_ops += other.get_ops;
        self.put_ops += other.put_ops;
        self.large_ops += other.large_ops;
        self.packets_rx += other.packets_rx;
        self.packets_tx += other.packets_tx;
        self.frames_rx += other.frames_rx;
        self.frames_tx += other.frames_tx;
        self.bytes_rx += other.bytes_rx;
        self.bytes_tx += other.bytes_tx;
        self.handoffs += other.handoffs;
        self.steals += other.steals;
        self.parks += other.parks;
        self.wakes += other.wakes;
        self.handovers += other.handovers;
        self.handover_ns += other.handover_ns;
        self
    }

    /// Element-wise difference (`self - earlier`), for windowed rates.
    pub fn delta(&self, earlier: &CoreStats) -> CoreStats {
        CoreStats {
            ops: self.ops - earlier.ops,
            get_ops: self.get_ops - earlier.get_ops,
            put_ops: self.put_ops - earlier.put_ops,
            large_ops: self.large_ops - earlier.large_ops,
            packets_rx: self.packets_rx - earlier.packets_rx,
            packets_tx: self.packets_tx - earlier.packets_tx,
            frames_rx: self.frames_rx - earlier.frames_rx,
            frames_tx: self.frames_tx - earlier.frames_tx,
            bytes_rx: self.bytes_rx - earlier.bytes_rx,
            bytes_tx: self.bytes_tx - earlier.bytes_tx,
            handoffs: self.handoffs - earlier.handoffs,
            steals: self.steals - earlier.steals,
            parks: self.parks - earlier.parks,
            wakes: self.wakes - earlier.wakes,
            handovers: self.handovers - earlier.handovers,
            handover_ns: self.handover_ns - earlier.handover_ns,
        }
    }
}

/// Atomic counters owned by one core, snapshot-readable by the harness.
///
/// All updates use `Ordering::Relaxed`: the counters are monotonic and
/// only read for statistics, never for synchronization. Servers keep one
/// per core side by side, each written on every request its core serves,
/// so each sits alone in a 128-byte block (a pair of 64-byte lines, the
/// unit the adjacent-line prefetcher moves) and no two cores write to
/// one line.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct SharedCoreStats {
    ops: AtomicU64,
    get_ops: AtomicU64,
    put_ops: AtomicU64,
    large_ops: AtomicU64,
    packets_rx: AtomicU64,
    packets_tx: AtomicU64,
    frames_rx: AtomicU64,
    frames_tx: AtomicU64,
    bytes_rx: AtomicU64,
    bytes_tx: AtomicU64,
    handoffs: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
    handovers: AtomicU64,
    handover_ns: AtomicU64,
}

impl SharedCoreStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed GET (`large` marks a large item).
    #[inline]
    pub fn record_get(&self, large: bool) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.get_ops.fetch_add(1, Ordering::Relaxed);
        if large {
            self.large_ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one completed PUT (`large` marks a large item).
    #[inline]
    pub fn record_put(&self, large: bool) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.put_ops.fetch_add(1, Ordering::Relaxed);
        if large {
            self.large_ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records packets received, the frames they carried and their
    /// bytes.
    #[inline]
    pub fn record_rx(&self, packets: u64, frames: u64, bytes: u64) {
        self.packets_rx.fetch_add(packets, Ordering::Relaxed);
        self.frames_rx.fetch_add(frames, Ordering::Relaxed);
        self.bytes_rx.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records packets transmitted, the frames they carried and their
    /// bytes.
    #[inline]
    pub fn record_tx(&self, packets: u64, frames: u64, bytes: u64) {
        self.packets_tx.fetch_add(packets, Ordering::Relaxed);
        self.frames_tx.fetch_add(frames, Ordering::Relaxed);
        self.bytes_tx.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a handoff to a large core's software queue.
    #[inline]
    pub fn record_handoff(&self) {
        self.handoffs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successful steal.
    #[inline]
    pub fn record_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one park of this core's thread.
    #[inline]
    pub fn record_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a park that a wake, not the timeout, ended.
    #[inline]
    pub fn record_wake(&self) {
        self.wakes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a round that ended by yielding to a peer it woke, for
    /// `ns` nanoseconds.
    #[inline]
    pub fn record_handover(&self, ns: u64) {
        self.handovers.fetch_add(1, Ordering::Relaxed);
        self.handover_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for statistics purposes.
    pub fn snapshot(&self) -> CoreStats {
        CoreStats {
            ops: self.ops.load(Ordering::Relaxed),
            get_ops: self.get_ops.load(Ordering::Relaxed),
            put_ops: self.put_ops.load(Ordering::Relaxed),
            large_ops: self.large_ops.load(Ordering::Relaxed),
            packets_rx: self.packets_rx.load(Ordering::Relaxed),
            packets_tx: self.packets_tx.load(Ordering::Relaxed),
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            frames_tx: self.frames_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            handoffs: self.handoffs.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
            handovers: self.handovers.load(Ordering::Relaxed),
            handover_ns: self.handover_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_records() {
        let s = SharedCoreStats::new();
        s.record_get(false);
        s.record_get(true);
        s.record_put(false);
        s.record_rx(3, 7, 4096);
        s.record_tx(2, 5, 1500);
        s.record_handoff();
        s.record_steal();
        s.record_park();
        s.record_park();
        s.record_wake();
        s.record_handover(250);
        s.record_handover(1_000);
        let snap = s.snapshot();
        assert_eq!(snap.ops, 3);
        assert_eq!(snap.get_ops, 2);
        assert_eq!(snap.put_ops, 1);
        assert_eq!(snap.large_ops, 1);
        assert_eq!(snap.packets_rx, 3);
        assert_eq!(snap.packets_tx, 2);
        assert_eq!((snap.frames_rx, snap.frames_tx), (7, 5));
        assert_eq!(snap.bytes_rx, 4096);
        assert_eq!(snap.bytes_tx, 1500);
        assert_eq!(snap.handoffs, 1);
        assert_eq!(snap.steals, 1);
        assert_eq!((snap.parks, snap.wakes, snap.handovers), (2, 1, 2));
        assert_eq!(snap.handover_ns, 1_250);
        assert_eq!(snap.packets(), 5);
    }

    #[test]
    fn neighbours_share_no_cache_line() {
        assert_eq!(std::mem::align_of::<SharedCoreStats>(), 128);
        assert_eq!(std::mem::size_of::<SharedCoreStats>(), 128);
    }

    #[test]
    fn delta_and_merge() {
        let a = CoreStats {
            ops: 10,
            packets_rx: 5,
            ..Default::default()
        };
        let b = CoreStats {
            ops: 4,
            packets_rx: 2,
            ..Default::default()
        };
        let d = a.delta(&b);
        assert_eq!(d.ops, 6);
        assert_eq!(d.packets_rx, 3);
        let m = b.merged(&d);
        assert_eq!(m.ops, a.ops);
        assert_eq!(m.packets_rx, a.packets_rx);
    }

    #[test]
    fn concurrent_updates_accumulate() {
        use std::sync::Arc;
        let s = Arc::new(SharedCoreStats::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_get(false);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().ops, 4000);
    }
}
