//! [`FaultTransport`]: a deterministic chaos wrapper over any
//! [`Transport`].
//!
//! The wrapper injects seeded faults on both directions of the packet
//! flow — drop probability, burst loss, duplication, a reordering
//! window, a per-packet delay distribution, and a queue blackhole (a
//! dead core whose RX ring is drained into the void) — so the zero-loss
//! methodology, the client's retry/hedging machinery and the server's
//! overload valve can be exercised over the *real* UDP datapath without
//! a real bad network.
//!
//! Every fault decision is a pure function of `(seed, direction, queue,
//! packet sequence number)`. The sequence number counts packets in
//! arrival order, which `recvmmsg`/`sendmmsg` bursts preserve, so
//! **the same seed and the same packet schedule produce the same fault
//! decisions regardless of batch geometry** — a chaos CI failure
//! reproduces from its seed, however the packets were cut into bursts
//! (property-tested in `tests/fault_determinism.rs`).
//!
//! Reordering is likewise count-based, not time-based: a packet
//! displaced by `d` is held until `d` later packets have passed it (or
//! until a short quiescence grace expires, so tails flush when traffic
//! stops). Counters for every injected fault are exported under
//! `fault.*` through the standard [`Transport::collect_metrics`] hook.

use crate::transport::{RxReadiness, Transport, TransportStats};
use minos_wire::packet::{Endpoint, Packet, TxPacket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Hard cap on packets held per lane (reorder/delay buffers), beyond
/// which the oldest are force-released — bounds memory under any
/// profile.
const MAX_HELD_PER_LANE: usize = 4096;

/// Faults applied to one direction of the packet flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirectionFaults {
    /// Per-packet drop probability in `[0, 1]`.
    pub drop: f64,
    /// Extra consecutive packets lost after each probability-triggered
    /// drop (correlated/burst loss; `0` = independent drops).
    pub burst: u32,
    /// Per-packet duplication probability in `[0, 1]` (the duplicate
    /// arrives immediately behind the original).
    pub dup: f64,
    /// Reordering window in packets: each packet is displaced by a
    /// seeded `0..=reorder` later arrivals (`0` = in order).
    pub reorder: u32,
    /// Upper bound of the seeded uniform per-packet delay, in
    /// microseconds (`0` = no added delay).
    pub delay_us: u64,
}

impl DirectionFaults {
    /// No faults in this direction.
    pub const NONE: DirectionFaults = DirectionFaults {
        drop: 0.0,
        burst: 0,
        dup: 0.0,
        reorder: 0,
        delay_us: 0,
    };

    fn is_noop(&self) -> bool {
        self.drop == 0.0 && self.dup == 0.0 && self.reorder == 0 && self.delay_us == 0
    }
}

/// A complete fault profile: per-direction faults, an optional RX queue
/// blackhole, the quiescence grace for reordered packets, and the seed
/// every decision derives from.
///
/// Parsed from the `--fault-profile` grammar shared by `minos-server`,
/// `minos-loadgen` and `minos-figures`:
///
/// ```text
/// drop=0.01,dup=0.001,reorder=8,seed=42
/// ```
///
/// Keys: `drop`, `burst`, `dup`, `reorder`, `delay_us` (each optionally
/// prefixed `rx.` or `tx.` to scope one direction; bare keys set both),
/// plus `blackhole=<queue>`, `reorder_hold_us=<us>` and `seed=<n>`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Faults on the receive direction.
    pub rx: DirectionFaults,
    /// Faults on the transmit direction.
    pub tx: DirectionFaults,
    /// RX queue whose packets are swallowed entirely — the dead core.
    pub blackhole: Option<u16>,
    /// How long a reorder-displaced packet may wait for overtakers
    /// before the quiescence flush releases it anyway (µs).
    pub reorder_hold_us: u64,
    /// Seed every fault decision derives from.
    pub seed: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            rx: DirectionFaults::NONE,
            tx: DirectionFaults::NONE,
            blackhole: None,
            reorder_hold_us: 2_000,
            seed: 42,
        }
    }
}

impl FaultProfile {
    /// Parses the `--fault-profile` grammar (see the type docs).
    pub fn parse(s: &str) -> Result<FaultProfile, String> {
        let mut p = FaultProfile::default();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault profile: `{part}` is not key=value"))?;
            let (dirs, leaf): (&mut [&mut DirectionFaults], &str) = match key.split_once('.') {
                Some(("rx", leaf)) => (&mut [&mut p.rx], leaf),
                Some(("tx", leaf)) => (&mut [&mut p.tx], leaf),
                Some((other, _)) => {
                    return Err(format!("fault profile: unknown direction `{other}`"))
                }
                None => (&mut [&mut p.rx, &mut p.tx], key),
            };
            let prob = |what: &str| -> Result<f64, String> {
                let v: f64 = value
                    .parse()
                    .map_err(|e| format!("fault profile: {what}: {e}"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("fault profile: {what} must be in [0, 1], got {v}"));
                }
                Ok(v)
            };
            let int = |what: &str| -> Result<u64, String> {
                value
                    .parse()
                    .map_err(|e| format!("fault profile: {what}: {e}"))
            };
            match leaf {
                "drop" => {
                    let v = prob("drop")?;
                    dirs.iter_mut().for_each(|d| d.drop = v);
                }
                "dup" => {
                    let v = prob("dup")?;
                    dirs.iter_mut().for_each(|d| d.dup = v);
                }
                "burst" => {
                    let v = int("burst")? as u32;
                    dirs.iter_mut().for_each(|d| d.burst = v);
                }
                "reorder" => {
                    let v = int("reorder")?;
                    if v as usize > MAX_HELD_PER_LANE / 2 {
                        return Err(format!("fault profile: reorder window {v} too large"));
                    }
                    dirs.iter_mut().for_each(|d| d.reorder = v as u32);
                }
                "delay_us" => {
                    let v = int("delay_us")?;
                    dirs.iter_mut().for_each(|d| d.delay_us = v);
                }
                "blackhole" if key == leaf => p.blackhole = Some(int("blackhole")? as u16),
                "reorder_hold_us" if key == leaf => p.reorder_hold_us = int("reorder_hold_us")?,
                "seed" if key == leaf => p.seed = int("seed")?,
                other => return Err(format!("fault profile: unknown key `{other}`")),
            }
        }
        Ok(p)
    }

    /// True when the profile injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.rx.is_noop() && self.tx.is_noop() && self.blackhole.is_none()
    }
}

/// Counters of injected faults (all monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// RX packets dropped (probability + burst).
    pub rx_dropped: u64,
    /// RX packets duplicated.
    pub rx_duplicated: u64,
    /// RX packets assigned a non-zero reorder displacement.
    pub rx_reordered: u64,
    /// RX packets assigned a non-zero delay.
    pub rx_delayed: u64,
    /// RX packets swallowed by the queue blackhole.
    pub rx_blackholed: u64,
    /// TX packets dropped (probability + burst).
    pub tx_dropped: u64,
    /// TX packets duplicated.
    pub tx_duplicated: u64,
    /// TX packets assigned a non-zero reorder displacement.
    pub tx_reordered: u64,
    /// TX packets assigned a non-zero delay.
    pub tx_delayed: u64,
}

impl FaultStats {
    /// Adds `other` field-by-field — merging per-thread injector stats
    /// into one report, the way the loadgen merges its client threads.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.rx_dropped += other.rx_dropped;
        self.rx_duplicated += other.rx_duplicated;
        self.rx_reordered += other.rx_reordered;
        self.rx_delayed += other.rx_delayed;
        self.rx_blackholed += other.rx_blackholed;
        self.tx_dropped += other.tx_dropped;
        self.tx_duplicated += other.tx_duplicated;
        self.tx_reordered += other.tx_reordered;
        self.tx_delayed += other.tx_delayed;
    }

    /// Total injected events across both directions.
    pub fn total(&self) -> u64 {
        self.rx_dropped
            + self.rx_duplicated
            + self.rx_reordered
            + self.rx_delayed
            + self.rx_blackholed
            + self.tx_dropped
            + self.tx_duplicated
            + self.tx_reordered
            + self.tx_delayed
    }
}

#[derive(Default)]
struct AtomicFaultStats {
    rx_dropped: AtomicU64,
    rx_duplicated: AtomicU64,
    rx_reordered: AtomicU64,
    rx_delayed: AtomicU64,
    rx_blackholed: AtomicU64,
    tx_dropped: AtomicU64,
    tx_duplicated: AtomicU64,
    tx_reordered: AtomicU64,
    tx_delayed: AtomicU64,
    rx_held: AtomicU64,
    tx_held: AtomicU64,
}

/// A packet held back for reordering or delay.
struct Held<P> {
    /// The packet may be overtaken until the lane's arrival sequence
    /// reaches this rank (its own sequence number + displacement).
    rank: u64,
    /// Arrival sequence: the stable tie-break between equal ranks, so
    /// release order never depends on hold-buffer bookkeeping.
    seq: u64,
    /// Earliest wall-clock release (the delay fault; 0 = immediately).
    release_at_ns: u64,
    /// Quiescence flush deadline: past this instant the packet goes out
    /// even if fewer than `displacement` overtakers ever arrived.
    grace_ns: u64,
    pkt: P,
}

/// Per-direction, per-queue fault pipeline state. All decisions are
/// derived from `seq`, never from batch sizes or wall clock, so both
/// syscall paths decide identically.
struct Lane<P> {
    /// Packets seen on this lane, in arrival order.
    seq: u64,
    /// Remaining packets of a triggered loss burst.
    burst_left: u32,
    hold: Vec<Held<P>>,
}

impl<P> Default for Lane<P> {
    fn default() -> Self {
        Lane {
            seq: 0,
            burst_left: 0,
            hold: Vec::new(),
        }
    }
}

const DIR_RX: u64 = 0x52;
const DIR_TX: u64 = 0x54;
const KIND_DROP: u64 = 1;
const KIND_DUP: u64 = 2;
const KIND_REORDER: u64 = 3;
const KIND_DELAY: u64 = 4;

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded decision word for packet `seq` on `(direction, queue)`.
fn decision(seed: u64, dir: u64, queue: u16, seq: u64, kind: u64) -> u64 {
    mix64(
        mix64(seed ^ (dir << 56) ^ (u64::from(queue) << 40) ^ kind)
            .wrapping_add(mix64(seq.wrapping_mul(0x2545_f491_4f6c_dd1d))),
    )
}

/// Maps a decision word onto `[0, 1)`.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`Transport`] wrapper injecting the deterministic, seeded faults of
/// a [`FaultProfile`] on both directions. See the module docs for the
/// determinism contract. Holds the inner transport by `Arc`, so callers
/// keep a typed handle to backend-specific extras
/// (`UdpTransport::io_stats` and friends) while the engine polls the
/// wrapper.
pub struct FaultTransport<T: Transport> {
    inner: Arc<T>,
    profile: FaultProfile,
    clock: Instant,
    rx_lanes: Vec<Mutex<Lane<Packet>>>,
    tx_lanes: Vec<Mutex<Lane<TxPacket>>>,
    stats: AtomicFaultStats,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner` with `profile`.
    pub fn new(inner: Arc<T>, profile: FaultProfile) -> Self {
        let queues = inner.num_queues() as usize;
        FaultTransport {
            profile,
            clock: Instant::now(),
            rx_lanes: (0..queues).map(|_| Mutex::new(Lane::default())).collect(),
            tx_lanes: (0..queues).map(|_| Mutex::new(Lane::default())).collect(),
            stats: AtomicFaultStats::default(),
            inner,
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &Arc<T> {
        &self.inner
    }

    /// The profile in force.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Snapshot of the injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        let s = &self.stats;
        FaultStats {
            rx_dropped: s.rx_dropped.load(Ordering::Relaxed),
            rx_duplicated: s.rx_duplicated.load(Ordering::Relaxed),
            rx_reordered: s.rx_reordered.load(Ordering::Relaxed),
            rx_delayed: s.rx_delayed.load(Ordering::Relaxed),
            rx_blackholed: s.rx_blackholed.load(Ordering::Relaxed),
            tx_dropped: s.tx_dropped.load(Ordering::Relaxed),
            tx_duplicated: s.tx_duplicated.load(Ordering::Relaxed),
            tx_reordered: s.tx_reordered.load(Ordering::Relaxed),
            tx_delayed: s.tx_delayed.load(Ordering::Relaxed),
        }
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Runs one packet through a direction's fault pipeline: decide
    /// drop/burst, duplication, displacement and delay from its lane
    /// sequence number, and park survivors in the hold buffer.
    #[allow(clippy::too_many_arguments)]
    fn admit<P: Clone>(
        &self,
        lane: &mut Lane<P>,
        d: &DirectionFaults,
        dir: u64,
        queue: u16,
        now: u64,
        counters: &DirCounters<'_>,
        pkt: P,
    ) {
        let seq = lane.seq;
        lane.seq += 1;
        if lane.burst_left > 0 {
            lane.burst_left -= 1;
            counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let seed = self.profile.seed;
        if d.drop > 0.0 && unit(decision(seed, dir, queue, seq, KIND_DROP)) < d.drop {
            lane.burst_left = d.burst;
            counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let displacement = if d.reorder > 0 {
            decision(seed, dir, queue, seq, KIND_REORDER) % (u64::from(d.reorder) + 1)
        } else {
            0
        };
        if displacement > 0 {
            counters.reordered.fetch_add(1, Ordering::Relaxed);
        }
        let delay_ns = if d.delay_us > 0 {
            (unit(decision(seed, dir, queue, seq, KIND_DELAY)) * d.delay_us as f64 * 1_000.0) as u64
        } else {
            0
        };
        if delay_ns > 0 {
            counters.delayed.fetch_add(1, Ordering::Relaxed);
        }
        let copies = if d.dup > 0.0 && unit(decision(seed, dir, queue, seq, KIND_DUP)) < d.dup {
            counters.duplicated.fetch_add(1, Ordering::Relaxed);
            2
        } else {
            1
        };
        let grace_ns = now + self.profile.reorder_hold_us * 1_000;
        for _ in 0..copies {
            lane.hold.push(Held {
                rank: seq + displacement,
                seq,
                release_at_ns: now + delay_ns,
                grace_ns,
                pkt: pkt.clone(),
            });
            counters.held.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Releases every eligible held packet (in rank order, up to `max`)
    /// into `emit`. A packet is eligible once its delay deadline has
    /// passed and either all its potential overtakers have arrived
    /// (`rank <= seq`, the count-based deterministic rule) or the
    /// quiescence grace expired. Overflow past [`MAX_HELD_PER_LANE`]
    /// force-releases oldest-rank first.
    fn release<P>(
        &self,
        lane: &mut Lane<P>,
        now: u64,
        max: usize,
        held_gauge: &AtomicU64,
        mut emit: impl FnMut(P),
    ) -> usize {
        let mut released = 0;
        while released < max && !lane.hold.is_empty() {
            let overflow = lane.hold.len() > MAX_HELD_PER_LANE;
            let mut best: Option<usize> = None;
            for (i, h) in lane.hold.iter().enumerate() {
                let eligible = overflow
                    || (h.release_at_ns <= now && (h.rank <= lane.seq || h.grace_ns <= now));
                if eligible
                    && best.is_none_or(|b| (h.rank, h.seq) < (lane.hold[b].rank, lane.hold[b].seq))
                {
                    best = Some(i);
                }
            }
            let Some(i) = best else { break };
            emit(lane.hold.swap_remove(i).pkt);
            held_gauge.fetch_sub(1, Ordering::Relaxed);
            released += 1;
        }
        released
    }
}

/// The per-direction counter handles [`FaultTransport::admit`] writes
/// into, so RX and TX share one pipeline implementation.
struct DirCounters<'a> {
    dropped: &'a AtomicU64,
    duplicated: &'a AtomicU64,
    reordered: &'a AtomicU64,
    delayed: &'a AtomicU64,
    held: &'a AtomicU64,
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn num_queues(&self) -> u16 {
        self.inner.num_queues()
    }

    fn rx_burst(&self, queue: u16, out: &mut Vec<Packet>, max: usize) -> usize {
        if self.profile.blackhole == Some(queue) {
            // The dead core: drain its ring into the void so the kernel
            // buffer doesn't just defer the loss, and count every
            // swallowed packet.
            let mut void = Vec::new();
            let eaten = self.inner.rx_burst(queue, &mut void, max.max(64));
            if eaten > 0 {
                self.stats
                    .rx_blackholed
                    .fetch_add(eaten as u64, Ordering::Relaxed);
            }
            return 0;
        }
        if self.profile.rx.is_noop() {
            return self.inner.rx_burst(queue, out, max);
        }
        let mut staged = Vec::new();
        self.inner.rx_burst(queue, &mut staged, max);
        let now = self.now_ns();
        let counters = DirCounters {
            dropped: &self.stats.rx_dropped,
            duplicated: &self.stats.rx_duplicated,
            reordered: &self.stats.rx_reordered,
            delayed: &self.stats.rx_delayed,
            held: &self.stats.rx_held,
        };
        let mut lane = self.rx_lanes[queue as usize].lock().expect("rx lane");
        for pkt in staged.drain(..) {
            self.admit(
                &mut lane,
                &self.profile.rx,
                DIR_RX,
                queue,
                now,
                &counters,
                pkt,
            );
        }
        self.release(&mut lane, now, max, &self.stats.rx_held, |pkt| {
            out.push(pkt)
        })
    }

    fn tx_frames(&self, queue: u16, frames: &mut Vec<TxPacket>) -> usize {
        if self.profile.tx.is_noop() {
            return self.inner.tx_frames(queue, frames);
        }
        let accepted = frames.len();
        let now = self.now_ns();
        let counters = DirCounters {
            dropped: &self.stats.tx_dropped,
            duplicated: &self.stats.tx_duplicated,
            reordered: &self.stats.tx_reordered,
            delayed: &self.stats.tx_delayed,
            held: &self.stats.tx_held,
        };
        let mut forward: Vec<TxPacket> = Vec::new();
        {
            let mut lane = self.tx_lanes[queue as usize].lock().expect("tx lane");
            for pkt in frames.drain(..) {
                self.admit(
                    &mut lane,
                    &self.profile.tx,
                    DIR_TX,
                    queue,
                    now,
                    &counters,
                    pkt,
                );
            }
            self.release(&mut lane, now, usize::MAX, &self.stats.tx_held, |pkt| {
                forward.push(pkt)
            });
        }
        if !forward.is_empty() {
            let _ = self.inner.tx_frames(queue, &mut forward);
        }
        // The fault layer consumed the whole burst; what it did to the
        // packets afterwards is the simulated network's business (the
        // caller's loss accounting notices, exactly as with real loss).
        accepted
    }

    fn local_endpoint(&self, queue: u16) -> Endpoint {
        self.inner.local_endpoint(queue)
    }

    /// The wrapped transport's readiness, due no later than the first
    /// packet held on the queue's lane may be released without a
    /// further arrival: a delayed packet at its release time, a
    /// reordered one once its quiescence grace is over. A poller that
    /// blocks on it is back by then, so the fault layer adds no wait of
    /// its own to a packet past its release.
    fn rx_readiness(&self, queue: u16) -> RxReadiness {
        let inner = self.inner.rx_readiness(queue);
        if self.profile.rx.is_noop() || self.profile.blackhole == Some(queue) {
            return inner;
        }
        let lane = self.rx_lanes[queue as usize].lock().expect("rx lane");
        // Past the cap the oldest is released at once.
        let overflow = lane.hold.len() > MAX_HELD_PER_LANE;
        let releasable_at = lane
            .hold
            .iter()
            .map(|h| match (overflow, h.rank <= lane.seq) {
                (true, _) => 0,
                (false, true) => h.release_at_ns,
                (false, false) => h.release_at_ns.max(h.grace_ns),
            })
            .min();
        drop(lane);
        let Some(at) = releasable_at else {
            return inner;
        };
        let due = at.saturating_sub(self.now_ns());
        RxReadiness {
            due_in_ns: Some(inner.due_in_ns.map_or(due, |d| d.min(due))),
            ..inner
        }
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn collect_metrics(&self, out: &mut Vec<(String, minos_obs::MetricValue)>) {
        self.inner.collect_metrics(out);
        let s = self.fault_stats();
        let c = |name: &str, v: u64| (format!("fault.{name}"), minos_obs::MetricValue::Counter(v));
        out.push(c("rx_dropped", s.rx_dropped));
        out.push(c("rx_duplicated", s.rx_duplicated));
        out.push(c("rx_reordered", s.rx_reordered));
        out.push(c("rx_delayed", s.rx_delayed));
        out.push(c("rx_blackholed", s.rx_blackholed));
        out.push(c("tx_dropped", s.tx_dropped));
        out.push(c("tx_duplicated", s.tx_duplicated));
        out.push(c("tx_reordered", s.tx_reordered));
        out.push(c("tx_delayed", s.tx_delayed));
        out.push((
            "fault.held".to_string(),
            minos_obs::MetricValue::Gauge(
                (self.stats.rx_held.load(Ordering::Relaxed)
                    + self.stats.tx_held.load(Ordering::Relaxed)) as f64,
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_canonical_grammar() {
        let p = FaultProfile::parse("drop=0.01,dup=0.001,reorder=8,seed=42").unwrap();
        assert_eq!(p.rx.drop, 0.01);
        assert_eq!(p.tx.drop, 0.01);
        assert_eq!(p.rx.dup, 0.001);
        assert_eq!(p.rx.reorder, 8);
        assert_eq!(p.seed, 42);
        assert!(!p.is_noop());
    }

    #[test]
    fn parse_direction_scoping_and_extras() {
        let p = FaultProfile::parse(
            "rx.drop=0.5,tx.dup=0.25,burst=3,blackhole=2,delay_us=100,reorder_hold_us=9,seed=7",
        )
        .unwrap();
        assert_eq!(p.rx.drop, 0.5);
        assert_eq!(p.tx.drop, 0.0);
        assert_eq!(p.tx.dup, 0.25);
        assert_eq!(p.rx.dup, 0.0);
        assert_eq!(p.rx.burst, 3);
        assert_eq!(p.tx.burst, 3);
        assert_eq!(p.blackhole, Some(2));
        assert_eq!(p.rx.delay_us, 100);
        assert_eq!(p.reorder_hold_us, 9);
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert!(FaultProfile::parse("drop=1.5").is_err());
        assert!(FaultProfile::parse("drop").is_err());
        assert!(FaultProfile::parse("zz=1").is_err());
        assert!(FaultProfile::parse("mid.drop=0.1").is_err());
        assert!(FaultProfile::parse("rx.seed=3").is_err());
        assert!(FaultProfile::parse("")
            .map(|p| p.is_noop())
            .unwrap_or(false));
    }

    #[test]
    fn decisions_depend_on_seed_and_seq() {
        let a = decision(1, DIR_RX, 0, 10, KIND_DROP);
        assert_eq!(a, decision(1, DIR_RX, 0, 10, KIND_DROP));
        assert_ne!(a, decision(2, DIR_RX, 0, 10, KIND_DROP));
        assert_ne!(a, decision(1, DIR_RX, 0, 11, KIND_DROP));
        assert_ne!(a, decision(1, DIR_TX, 0, 10, KIND_DROP));
        assert_ne!(a, decision(1, DIR_RX, 1, 10, KIND_DROP));
        assert_ne!(a, decision(1, DIR_RX, 0, 10, KIND_DUP));
    }

    #[test]
    fn a_held_packet_makes_its_queue_due_by_its_release() {
        use crate::VirtualTransport;
        use minos_nic::{NicConfig, VirtualNic};
        use minos_wire::packet::synthesize;
        use minos_wire::udp::UdpHeader;

        let nic = Arc::new(VirtualNic::new(NicConfig::new(1)));
        let inner = Arc::new(VirtualTransport::new(Arc::clone(&nic)));
        let profile = FaultProfile::parse("rx.delay_us=5000,seed=3").unwrap();
        let fault = FaultTransport::new(inner, profile);
        let idle = fault.rx_readiness(0);
        assert_eq!(
            idle.fd,
            Some(nic.rx_doorbell(0)),
            "the wrapped transport's fd"
        );
        assert_eq!(idle.due_in_ns, None, "nothing held");

        let dst = Endpoint::host(1, UdpHeader::port_for_queue(0));
        let pkt = synthesize(
            Endpoint::host(9, 20_000),
            dst,
            bytes::Bytes::from_static(b"x"),
        );
        nic.deliver_packet(pkt);
        let mut out = Vec::new();
        assert_eq!(fault.rx_burst(0, &mut out, 32), 0, "the delay holds it");
        // The inner queue is empty now, so only the due time brings a
        // blocked poller back for it.
        let due = fault.rx_readiness(0).due_in_ns.expect("a held packet");
        assert!((1..=5_000_000).contains(&due), "due in {due} ns");
        std::thread::sleep(std::time::Duration::from_nanos(due));
        assert_eq!(fault.rx_readiness(0).due_in_ns, Some(0), "due now");
        assert_eq!(fault.rx_burst(0, &mut out, 32), 1, "released once due");
        assert_eq!(fault.rx_readiness(0).due_in_ns, None, "nothing held");
    }

    #[test]
    fn unit_is_a_probability() {
        for seq in 0..1000 {
            let u = unit(decision(99, DIR_RX, 0, seq, KIND_DROP));
            assert!((0.0..1.0).contains(&u));
        }
    }
}
