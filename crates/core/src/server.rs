//! The threaded Minos server runtime.
//!
//! One busy-polling OS thread per simulated core, run-to-completion, no
//! async runtime (DPDK style — the Rust networking guides' advice is
//! that cooperative async schedulers and CPU-bound polling loops don't
//! mix). Each poll round is the paper's loop (§4.1): read a batch of
//! `B` from the RX queues, execute it, transmit the batch — the replies
//! are *staged* in the core's [`TxBurst`] as they are built and leave
//! in one [`Transport::tx_frames`] call once the RX burst has been
//! processed (so before any queued large request executes), once more
//! after the software-queue batch, and at once when a multi-fragment
//! reply has been staged or the burst has reached `B` datagrams. A
//! round that received one request flushes a burst of one, so the
//! unloaded path pays nothing for it. A datagram is a sequence of
//! frames (`minos_wire::frag`): a core walks every frame of what it
//! received, and the single-fragment replies it stages back to back
//! for one peer share datagrams when that peer's requests said it
//! accepts bundles — `k` small replies then cross the kernel in
//! `⌈k/4⌉` datagrams instead of `k`. Responsibilities per the paper
//! (§3):
//!
//! * **Small cores** drain their own RX queue in batches of `B`, then
//!   `B/n_s` from each large core's RX queue; they execute small
//!   requests to completion and hand large ones to the software queue of
//!   the large core whose size range matches.
//! * **Large cores** never touch RX queues; they poll their lock-free
//!   software queue, *stream* large-PUT fragments straight into the
//!   value's final store-mempool block (reserved from the size in the
//!   first-seen fragment header — no lookup, no reassembly buffer; see
//!   [`crate::ingest`]), commit on completion, and reply on their own
//!   TX queue. Each fragment's pooled RX buffer is released the moment
//!   its chunk is copied, so RX-pool occupancy stays O(rx batch)
//!   instead of O(message size / MTU).
//! * **Core 0** additionally runs the epoch control loop: aggregate the
//!   per-core size histograms, update the threshold, re-allocate cores,
//!   rebuild the size ranges, publish the new [`ShardingPlan`]. Cores
//!   notice a publication by a version counter and keep their own copy
//!   of the plan (and the RX drain schedule it implies) in between.
//!
//! That is the default discipline. Which RX queues a core drains, where
//! a request executes and which cores pull the shared queue are all the
//! configured [`Discipline`]'s answers ([`crate::dispatch`]), so the
//! paper's baselines (`hkh`, `hkh --steal`, `sho`) run on this same
//! engine, store and network stack.
//!
//! A core that finds no work blocks in one `ppoll` (`Core::idle`) until
//! a packet lands on an RX queue it watches, a peer that pushed work for
//! it writes its wake eventfd, or 2 ms pass. The only drainer of an RX
//! queue watches every queue it drains, and polls on for 64 idle rounds
//! before it blocks; a core whose RX queues a peer drains too — the
//! handoff cores under size-aware sharding, sho's workers — watches
//! none and blocks at once, since only pushes bring it work. No idle
//! core yields its CPU; a waker hands over once: a round that pushed
//! work and woke a blocked core for it ends, after its last flush, in
//! one `yield_now`, so the woken core runs on the waker's CPU instead
//! of after a poller's scheduler slice (`core.N.handovers`; the time
//! spent inside those yields, `core.N.handover_ns`).
//!
//! Lifecycle telemetry follows the same split: a request's `service_ns`
//! ends when its reply is staged, and the send is the burst's
//! (`core.N.tx_flush_ns`, `core.N.tx_flushes`); `core.N.packets_tx` /
//! `frames_tx` / `bytes_tx` count what the transport accepted, datagrams
//! and the frames inside them.
//!
//! The server is generic over [`Transport`]: the same engine code runs
//! over the in-process [`VirtualNic`] (through [`VirtualTransport`]'s
//! pooled gather, used by tests and examples) or over real
//! `SO_REUSEPORT` UDP sockets (`minos_net::UdpTransport`, used by the
//! `minos-server` binary).

use crate::allocation::allocate;
use crate::config::{MinosConfig, BATCH, SOFT_QUEUE_CAPACITY};
use crate::cost::CostFn;
use crate::dispatch::{
    fragment_key, Discipline, DisciplineKind, DrainSchedule, PlaceCtx, Placement, QueueDepths,
};
use crate::ingest::{
    rejected_put_reply, DiscardQuota, OpenOutcome, PutIngest, DISCARD_QUOTA_PER_SOURCE,
};
use crate::plan::ShardingPlan;
use crate::ranges::LargeRanges;
use crate::threshold::ThresholdController;
use crossbeam::queue::ArrayQueue;
use minos_kv::{PutError, Store, StoreConfig};
use minos_net::{EventFd, PollSet, Transport, VirtualTransport};
use minos_nic::{NicConfig, VirtualNic};
use minos_obs::{
    Clock, Collector, CoreTelemetry, Counter, MetricValue, MetricsRegistry, ReqClass, WallClock,
};
use minos_stats::{AtomicSizeHistogram, CoreStats, SharedCoreStats, SizeHistogram};
use minos_wire::frag::{frames, stage_message, FragHeader, Streamed, StreamingReassembler};
use minos_wire::message::{Body, Message, ReplyStatus, MSG_HEADER_LEN};
use minos_wire::packet::{Endpoint, Packet, TxPacket};
use parking_lot::{Mutex, RwLock};
use std::os::fd::AsRawFd;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Host id the server's endpoints use in the virtual world (clients
/// must differ).
pub const SERVER_HOST_ID: u32 = 1;

/// Ring capacity per queue of the virtual NIC that
/// [`MinosServer::start`] builds: as deep as a software queue
/// ([`SOFT_QUEUE_CAPACITY`]), so an unpaced in-process client's burst
/// waits in the ring instead of being dropped at it.
pub const NIC_QUEUE_CAPACITY: usize = SOFT_QUEUE_CAPACITY;

/// Idle rounds a core that watches RX queues polls through before it
/// blocks ([`Core::idle`]): a burst that arrives within them finds the
/// core still polling.
const SPIN_ROUNDS: u32 = 64;

/// The longest a blocked core sleeps without a wake. It then runs
/// [`Core::housekeeping`] — its share of the TTL sweep and eviction, the
/// stale-partial clock, core 0's epoch timer — and polls one round, so
/// what no wake covers (an arrival on an RX queue it does not watch, on
/// a transport without readiness fds) waits at most this.
const PARK_TIMEOUT: Duration = Duration::from_millis(2);

/// Server configuration: engine policy plus store sizing.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Engine policy knobs.
    pub minos: MinosConfig,
    /// Store geometry.
    pub store: StoreConfig,
    /// CPUs to pin polling threads to: the thread for core `i` is pinned
    /// to `pin_cpus[i % len]` (the paper pins one thread per physical
    /// core, §5.1). `None` (the default) leaves scheduling to the OS;
    /// pin failures are reported once and otherwise best-effort.
    pub pin_cpus: Option<Vec<usize>>,
}

impl ServerConfig {
    /// The config every server is built from, not only test servers:
    /// `minos-server`, `minos-figures`, the examples and the tests all
    /// start here with `n_cores` cores and room for `n_items` items,
    /// then set the policy they want.
    pub fn for_test(n_cores: usize, n_items: usize) -> Self {
        let minos = MinosConfig {
            n_cores,
            epoch_ns: 50_000_000, // 50 ms epochs so tests adapt fast
            ..MinosConfig::default()
        };
        ServerConfig {
            minos,
            store: StoreConfig::for_items(n_cores * 4, n_items, 1 << 30),
            pin_cpus: None,
        }
    }
}

/// A request extracted from the wire, ready to execute.
#[derive(Debug)]
pub struct ServerRequest {
    /// The decoded message.
    pub msg: Message,
    /// Where the reply goes.
    pub reply_to: Endpoint,
    /// The request's frame said its sender walks datagrams frame by
    /// frame ([`FragHeader::accepts_bundles`]): the reply may share a
    /// datagram with its neighbours in the burst, whichever core ends
    /// up executing the request — under every discipline.
    pub accepts_bundles: bool,
    /// When the packet left the NIC ring (rx-dequeue, nanoseconds on
    /// the server's shared clock). Queue-wait telemetry measures from
    /// here.
    pub arrival_ns: u64,
}

/// Items travelling through a large core's software queue.
#[derive(Debug)]
pub enum Handoff {
    /// A complete request classified as large.
    Request(ServerRequest),
    /// One fragment of a multi-packet (large PUT) message; the large
    /// core owns reassembly so small cores never buffer large payloads.
    /// Carries its rx-dequeue timestamp so the executing core can
    /// attribute the software-queue wait.
    Fragment(Packet, u64),
}

/// A software queue. Its ring preallocates every slot, so a slot holds
/// a 16-byte box handle, not a 120-byte [`Handoff`]: 1 MiB per 65 536
/// slots instead of 7.5 MiB. Popped boxes wait in `spare` for the next
/// push; a malloc on one core and a free on another per handoff cost
/// `large_heavy` about 5 % of its throughput.
struct HandoffRing {
    ring: ArrayQueue<Box<Option<Handoff>>>,
    spare: ArrayQueue<Box<Option<Handoff>>>,
}

impl HandoffRing {
    fn new(capacity: usize) -> Self {
        HandoffRing {
            ring: ArrayQueue::new(capacity),
            spare: ArrayQueue::new(64), // a few poll rounds' handoffs
        }
    }

    /// Enqueues `handoff`, or hands it back when the ring is full.
    fn push(&self, handoff: Handoff) -> Result<(), Handoff> {
        let mut boxed = self.spare.pop().unwrap_or_default();
        *boxed = Some(handoff);
        self.ring
            .push(boxed)
            .map_err(|mut full| full.take().expect("the rejected box holds the handoff"))
    }

    fn pop(&self) -> Option<Handoff> {
        let mut boxed = self.ring.pop()?;
        let handoff = boxed.take();
        let _ = self.spare.push(boxed);
        handoff
    }

    fn len(&self) -> usize {
        self.ring.len()
    }

    fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Bytes preallocated: a slot is a box handle and a sequence word.
    fn bytes(&self) -> usize {
        (self.ring.capacity() + self.spare.capacity()) * 2 * std::mem::size_of::<usize>()
    }
}

/// Pins every fragment of one in-flight multi-packet message to the core
/// chosen for its first-seen fragment.
///
/// Without this, an epoch plan change landing between two fragments of a
/// large PUT could split the message across two large cores' reassembly
/// state and the request would never complete. Entries are removed when
/// all fragments have been seen and are evicted oldest-first on overflow
/// (a lost fragment means a lost request, which is the client's
/// retransmission problem — §4.1).
struct FlowPins {
    inner: Mutex<std::collections::HashMap<(u64, u64), PinEntry>>,
    cap: usize,
    /// Pins ever made, so each pin's `seq` is monotone and the smallest
    /// live one is the oldest pin, whatever completed since.
    pinned: AtomicU64,
}

struct PinEntry {
    target: usize,
    seen: u16,
    count: u16,
    seq: u64,
}

impl FlowPins {
    fn new(cap: usize) -> Self {
        FlowPins {
            inner: Mutex::new(std::collections::HashMap::new()),
            cap,
            pinned: AtomicU64::new(0),
        }
    }

    /// Returns the pinned target core for fragment `(src, msg_id)`,
    /// establishing `fresh_target` on first sight. `count` is the
    /// message's total fragment count.
    fn pin(
        &self,
        src: u64,
        msg_id: u64,
        count: u16,
        fresh_target: impl FnOnce() -> usize,
    ) -> usize {
        let mut map = self.inner.lock();
        let entry = map.entry((src, msg_id)).or_insert_with(|| PinEntry {
            target: fresh_target(),
            seen: 0,
            count,
            seq: self.pinned.fetch_add(1, Ordering::Relaxed),
        });
        entry.seen += 1;
        let target = entry.target;
        let done = entry.seen >= entry.count;
        if done {
            map.remove(&(src, msg_id));
        } else if map.len() > self.cap {
            if let Some(oldest) = map.iter().min_by_key(|(_, e)| e.seq).map(|(k, _)| *k) {
                map.remove(&oldest);
            }
        }
        target
    }
}

/// Where a core blocks ([`Core::block`]): an eventcount over its wake
/// eventfd. The blocker sets `parked`, fences and re-checks everything
/// that would wake it before it blocks; a waker makes its work visible,
/// fences and, finding `parked` set and work waiting for the core,
/// clears the flag and writes the eventfd ([`Shared::wake`]). With
/// both fences, either the blocker sees the work or the waker sees the
/// flag. On a 128-byte block of its own, like [`SharedCoreStats`],
/// since peers write it.
#[repr(align(128))]
struct Parking {
    parked: AtomicBool,
    wake: EventFd,
}

impl Parking {
    fn new() -> Self {
        Parking {
            parked: AtomicBool::new(false),
            wake: EventFd::new().expect("a wake eventfd per core"),
        }
    }
}

/// The RX queues `core` watches while it blocks under `plan`, beside its
/// wake eventfd ([`Core::block`]). A core that is the only drainer of
/// some queue in its [`Discipline::rx_drain`] schedule watches the whole
/// schedule, since no peer polls that queue for it. A core whose every
/// queue a peer drains too watches none: the peer takes what arrives,
/// and what only this core serves — its software queue, the shared
/// queue if it pulls it — wakes it when pushed. A core that may steal
/// RX bursts (`steal_rx`) watches every queue, since a busy peer's
/// arrivals are its work.
fn watched(
    discipline: &dyn Discipline,
    plan: &ShardingPlan,
    n_cores: usize,
    steal_rx: bool,
    core: usize,
) -> Vec<u16> {
    if steal_rx {
        return (0..n_cores as u16).collect();
    }
    let Some(own) = discipline.rx_drain(core, plan, BATCH) else {
        return Vec::new();
    };
    let peers: Vec<DrainSchedule> = (0..n_cores)
        .filter(|&peer| peer != core)
        .filter_map(|peer| discipline.rx_drain(peer, plan, BATCH))
        .collect();
    let drained_by_a_peer = |q| peers.iter().any(|peer| peer.queues().any(|p| p == q));
    if own.queues().all(drained_by_a_peer) {
        return Vec::new();
    }
    own.queues().map(|q| q as u16).collect()
}

/// The live soft queues as the [`QueueDepths`] view disciplines consume
/// (`len()` on an [`ArrayQueue`] is a pair of relaxed loads).
impl QueueDepths for Vec<HandoffRing> {
    fn depth(&self, core: usize) -> usize {
        self[core].len()
    }
}

struct Shared<T: Transport, C: Clock> {
    config: MinosConfig,
    transport: Arc<T>,
    store: Arc<Store>,
    plan: RwLock<Arc<ShardingPlan>>,
    /// Bumped by [`run_epoch`] after it publishes a plan. Cores poll
    /// this one word per round and touch `plan` (its lock, its
    /// reference count) only when it moved ([`PlanCache`]).
    plan_version: AtomicU64,
    /// The queue discipline placing decoded requests onto cores
    /// (size-aware sharding unless configured otherwise).
    discipline: Box<dyn Discipline>,
    soft_queues: Vec<HandoffRing>,
    /// The single shared queue, pulled by the cores the discipline names
    /// ([`Discipline::pulls_shared`]: every core under cFCFS, the
    /// workers under SHO); `None` where no core pulls it.
    shared_queue: Option<HandoffRing>,
    stats: Vec<SharedCoreStats>,
    /// Core-owned size histograms: recording is a relaxed `fetch_add`
    /// on an atomic bucket counter (no per-request lock), the epoch
    /// controller snapshots them by draining.
    size_hists: Vec<AtomicSizeHistogram>,
    controller: Mutex<ThresholdController>,
    shutdown: AtomicBool,
    /// The engine's one time source: every stamp and timer a core
    /// reads goes through its clone of it ([`Core::clock`]).
    clock: C,
    /// The unified metric registry every subsystem reports into.
    registry: Arc<MetricsRegistry>,
    /// Per-core request-lifecycle histograms (queue wait + service time,
    /// split small/large — the paper's Fig. 5/6 decomposition).
    telemetry: Vec<CoreTelemetry>,
    soft_drops: Counter,
    epochs: Counter,
    malformed: Counter,
    reassembly_evictions: Counter,
    /// Placements onto a specific core's software queue
    /// (`dispatch.queue_picks`; for size-aware these are the handoffs).
    queue_picks: Counter,
    /// Placements onto the shared queue (`dispatch.shared_picks`).
    shared_picks: Counter,
    /// Steals (`dispatch.steals`; only moves when [`MinosConfig::steal`]
    /// is on): one per request taken from a peer's software queue, one
    /// per RX burst taken from a peer's RX queue.
    steal_picks: Counter,
    epoch_deadline_ns: AtomicU64,
    /// One parking spot per core.
    parking: Vec<Parking>,
    /// Fragment-to-core pinning for in-flight multi-packet messages.
    flow_pins: FlowPins,
    /// Per-source cap on concurrent discard-mode ingests (memory-
    /// pressure PUTs held only to answer `OutOfMemory`).
    discard_quota: Arc<DiscardQuota>,
}

impl<T: Transport, C: Clock> Shared<T, C> {
    /// Everything the cores share, built from `config` over `transport`
    /// (which must expose exactly one RX/TX queue pair per core) and
    /// read through `clock`: the store, the initial plan, the queues,
    /// the counters. No thread runs and no collector is registered yet.
    fn new(config: &ServerConfig, transport: Arc<T>, clock: C) -> Self {
        config.minos.validate().expect("invalid Minos config");
        let n = config.minos.n_cores;
        assert_eq!(
            transport.num_queues(),
            n as u16,
            "transport must have one queue per core"
        );
        let controller = ThresholdController::new(config.minos.threshold_mode, CostFn::Packets);
        // The initial plan honours the controller's seed decision, so a
        // `Static(t)` threshold is in force from the first packet (it
        // used to be overwritten by the bootstrap plan until the first
        // dynamic epoch — which never came in static mode). In dynamic
        // mode `current()` *is* the bootstrap decision.
        let initial = {
            let decision = controller.current();
            ShardingPlan {
                epoch_id: 0,
                allocation: allocate(n, decision.small_cost_share),
                ranges: LargeRanges::single(),
                decision,
            }
        };
        let registry = Arc::new(MetricsRegistry::new());
        // Always 0: nothing sheds. Registered because the benchmark's
        // `core.sheds` row reads it.
        registry.counter("dispatch.sheds");
        let discipline = config.minos.discipline.build();
        // The shared queue stands in for *all* per-core queues, so it
        // gets their aggregate capacity — equal total backlog before
        // tail-drop, whatever the discipline.
        let shared_queue = (0..n)
            .any(|core| discipline.pulls_shared(core))
            .then(|| HandoffRing::new(SOFT_QUEUE_CAPACITY * n));
        Shared {
            store: Arc::new(Store::new(config.store.clone())),
            plan: RwLock::new(Arc::new(initial)),
            plan_version: AtomicU64::new(0),
            discipline,
            soft_queues: (0..n)
                .map(|_| HandoffRing::new(SOFT_QUEUE_CAPACITY))
                .collect(),
            shared_queue,
            stats: (0..n).map(|_| SharedCoreStats::new()).collect(),
            size_hists: (0..n).map(|_| AtomicSizeHistogram::new()).collect(),
            controller: Mutex::new(controller),
            shutdown: AtomicBool::new(false),
            clock,
            telemetry: (0..n)
                .map(|core| CoreTelemetry::register(&registry, core))
                .collect(),
            soft_drops: registry.counter("engine.soft_queue_drops"),
            epochs: registry.counter("engine.epochs"),
            malformed: registry.counter("engine.malformed"),
            reassembly_evictions: registry.counter("ingest.reassembly_evictions"),
            queue_picks: registry.counter("dispatch.queue_picks"),
            shared_picks: registry.counter("dispatch.shared_picks"),
            steal_picks: registry.counter("dispatch.steals"),
            epoch_deadline_ns: AtomicU64::new(config.minos.epoch_ns),
            parking: (0..n).map(|_| Parking::new()).collect(),
            flow_pins: FlowPins::new(4096),
            discard_quota: DiscardQuota::new(DISCARD_QUOTA_PER_SOURCE),
            config: config.minos.clone(),
            transport,
            registry,
        }
    }

    /// What the discipline sees to place a request for `key` (of `size`
    /// bytes, when known without a lookup) that core `rx_core` decoded
    /// under `plan`.
    fn place_ctx<'p>(
        &'p self,
        rx_core: usize,
        plan: &'p ShardingPlan,
        key: u64,
        size: Option<u64>,
    ) -> PlaceCtx<'p> {
        PlaceCtx {
            rx_core,
            n_cores: self.config.n_cores,
            key,
            size,
            plan,
            depths: &self.soft_queues,
        }
    }

    /// Every ring: the soft queues, then the shared queue if it exists.
    fn rings(&self) -> impl Iterator<Item = &HandoffRing> {
        self.soft_queues.iter().chain(&self.shared_queue)
    }

    /// Wakes `core` if it is blocked: clears its flag and writes its
    /// wake eventfd. The caller has made its work visible and fenced
    /// ([`Parking`]). Allocates nothing; only the waker that clears the
    /// flag pays for the write, and it returns whether it did.
    fn wake(&self, core: usize) -> bool {
        let spot = &self.parking[core];
        let woke =
            spot.parked.load(Ordering::Relaxed) && spot.parked.swap(false, Ordering::Relaxed);
        if woke {
            spot.wake.notify();
        }
        woke
    }

    /// Wakes every blocked core: after a plan publication, which may
    /// change what a blocked core polls and watches, and at shutdown.
    fn wake_all(&self) {
        fence(Ordering::SeqCst);
        for core in 0..self.config.n_cores {
            self.wake(core);
        }
    }
}

/// Snapshot-time adapter from the [`Transport`]'s own stats structs to
/// registry metrics (`transport.*`, and `pool.*` / `nic.*` where the
/// backend overrides [`Transport::collect_metrics`]).
struct TransportCollector<T: Transport>(Arc<T>);

impl<T: Transport + 'static> Collector for TransportCollector<T> {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        self.0.collect_metrics(out);
    }
}

/// Snapshot-time view of the engine: per-core throughput counters, the
/// plan in force, software-queue depth and the ingest copy gauge. Holds
/// a `Weak` so the registry (which callers may outlive the server with)
/// never keeps the engine alive, and never cycles with [`Shared`]'s own
/// `registry` field.
struct EngineCollector<T: Transport, C: Clock>(Weak<Shared<T, C>>);

impl<T: Transport + 'static, C: Clock> Collector for EngineCollector<T, C> {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        let Some(shared) = self.0.upgrade() else {
            return; // server gone: its owned metrics retain final values
        };
        for (i, stats) in shared.stats.iter().enumerate() {
            let c = stats.snapshot();
            let counter =
                |leaf: &str, v: u64| (format!("core.{i}.{leaf}"), MetricValue::Counter(v));
            out.push(counter("ops", c.ops));
            out.push(counter("get_ops", c.get_ops));
            out.push(counter("put_ops", c.put_ops));
            out.push(counter("large_ops", c.large_ops));
            out.push(counter("handoffs", c.handoffs));
            out.push(counter("steals", c.steals));
            out.push(counter("parks", c.parks));
            out.push(counter("wakes", c.wakes));
            out.push(counter("handovers", c.handovers));
            out.push(counter("handover_ns", c.handover_ns));
            out.push(counter("packets_rx", c.packets_rx));
            out.push(counter("packets_tx", c.packets_tx));
            out.push(counter("frames_rx", c.frames_rx));
            out.push(counter("frames_tx", c.frames_tx));
            out.push(counter("bytes_rx", c.bytes_rx));
            out.push(counter("bytes_tx", c.bytes_tx));
        }
        let plan = shared.plan.read().clone();
        let gauge = |name: &str, v: f64| (name.to_string(), MetricValue::Gauge(v));
        out.push((
            "plan.epoch".to_string(),
            MetricValue::Counter(plan.epoch_id),
        ));
        out.push(gauge(
            "plan.threshold_bytes",
            plan.decision.threshold as f64,
        ));
        out.push(gauge("plan.n_small", plan.allocation.n_small as f64));
        out.push(gauge("plan.n_large", plan.allocation.n_large as f64));
        out.push(gauge(
            "plan.standby",
            if plan.allocation.standby { 1.0 } else { 0.0 },
        ));
        let depth: usize = shared.soft_queues.iter().map(|q| q.len()).sum();
        out.push(gauge("dispatch.soft_queue_depth", depth as f64));
        out.push(gauge(
            "dispatch.shared_queue_depth",
            shared.shared_queue.as_ref().map_or(0, |q| q.len()) as f64,
        ));
        let bytes: usize = shared.rings().map(HandoffRing::bytes).sum();
        out.push(gauge("dispatch.queue_bytes", bytes as f64));
        out.push((
            "ingest.put_copied_bytes".to_string(),
            MetricValue::Counter(shared.store.mempool().stats().copied_bytes),
        ));
        out.push((
            "ingest.discard_quota_rejects".to_string(),
            MetricValue::Counter(shared.discard_quota.rejects()),
        ));
    }
}

/// Registers `shared`'s snapshot-time collectors: the store (store.* /
/// mempool.*), the transport backend (transport.* / pool.* / nic.*),
/// and the engine itself (core.* counters, plan.*, dispatch.*,
/// ingest.*). The engine collector holds a Weak so the registry — which
/// callers may keep past shutdown — never cycles with `Shared`.
fn register_collectors<T: Transport + 'static, C: Clock>(shared: &Arc<Shared<T, C>>) {
    let registry = &shared.registry;
    registry.register_collector(Box::new(Arc::clone(&shared.store)));
    registry.register_collector(Box::new(TransportCollector(Arc::clone(&shared.transport))));
    registry.register_collector(Box::new(EngineCollector(Arc::downgrade(shared))));
}

/// The running Minos server, generic over its packet [`Transport`].
pub struct MinosServer<T: Transport> {
    shared: Arc<Shared<T, WallClock>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl MinosServer<VirtualTransport> {
    /// Builds a virtual NIC sized by `config` and starts the server
    /// threads over it, sending through [`VirtualTransport`]'s pooled
    /// gather — so the simulated backend's TX path is allocation-free
    /// in steady state, just like the UDP backend's, with every
    /// gathered segment byte counted in the transport's
    /// [`minos_net::TransportStats::tx_copied_bytes`].
    pub fn start(config: ServerConfig) -> Self {
        let nic = Arc::new(VirtualNic::new(
            NicConfig::new(config.minos.n_cores as u16).with_queue_capacity(NIC_QUEUE_CAPACITY),
        ));
        Self::start_with_transport(config, Arc::new(VirtualTransport::new(nic)))
    }

    /// The virtual NIC under the transport: in-process clients deliver
    /// request frames to its RX queues and drain replies from its TX
    /// queues ([`crate::client::Client::new`]).
    pub fn nic(&self) -> Arc<VirtualNic> {
        Arc::clone(self.shared.transport.nic())
    }
}

impl<T: Transport + 'static> MinosServer<T> {
    /// Starts the server threads over an externally constructed
    /// transport. The transport must expose exactly one RX/TX queue
    /// pair per configured core.
    pub fn start_with_transport(config: ServerConfig, transport: Arc<T>) -> Self {
        let mut shared = Shared::new(&config, transport, WallClock::new());
        // Engine time starts with the registry, so a stamp lines up with
        // snapshot `elapsed_ms`.
        shared.clock = WallClock::starting_at(shared.registry.start());
        let shared = Arc::new(shared);
        register_collectors(&shared);
        let pin_cpus = config.pin_cpus.filter(|cpus| !cpus.is_empty());
        let threads = (0..shared.config.n_cores)
            .map(|core| {
                let shared = Arc::clone(&shared);
                let pin = pin_cpus.as_ref().map(|cpus| cpus[core % cpus.len()]);
                std::thread::Builder::new()
                    .name(format!("minos-core-{core}"))
                    .spawn(move || {
                        if let Some(cpu) = pin {
                            if let Err(e) = minos_net::affinity::pin_current_thread(cpu) {
                                eprintln!("minos-core-{core}: pinning to cpu {cpu} failed: {e}");
                            }
                        }
                        Core::new(&shared, core).run()
                    })
                    .expect("spawn core thread")
            })
            .collect();
        MinosServer { shared, threads }
    }

    /// The transport the server polls.
    pub fn transport(&self) -> Arc<T> {
        Arc::clone(&self.shared.transport)
    }

    /// The plan currently in force (inspection/testing).
    pub fn plan(&self) -> Arc<ShardingPlan> {
        self.shared.plan.read().clone()
    }

    /// The underlying store (preloading, inspection).
    pub fn store(&self) -> Arc<Store> {
        Arc::clone(&self.shared.store)
    }

    /// Number of server cores.
    pub fn n_cores(&self) -> usize {
        self.shared.config.n_cores
    }

    /// The queue discipline placing requests onto cores.
    pub fn discipline(&self) -> DisciplineKind {
        self.shared.discipline.kind()
    }

    /// Per-core statistics snapshot.
    pub fn core_stats(&self) -> Vec<CoreStats> {
        self.shared.stats.iter().map(|s| s.snapshot()).collect()
    }

    /// The unified metric registry: every subsystem's counters, gauges
    /// and lifecycle histograms, renderable as a [`minos_obs::Snapshot`]
    /// at any time. The registry outlives the server (collectors held
    /// weakly go quiet after shutdown; owned metrics keep their final
    /// values).
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// The per-source discard-mode quota guarding `PutIngest` opens
    /// under memory pressure. Exposed so tests can pin a source's
    /// slots and exercise the over-quota reply path deterministically.
    pub fn discard_quota(&self) -> Arc<DiscardQuota> {
        Arc::clone(&self.shared.discard_quota)
    }

    /// Forces an epoch update immediately (testing hook: the same code
    /// path core 0 runs on the epoch timer).
    pub fn force_epoch(&self) {
        run_epoch(&self.shared);
    }

    /// Requests still queued in software queues — the per-core ones plus
    /// the shared queue — i.e. handoffs not yet executed. Zero
    /// means every accepted request has been replied to.
    pub fn pending_handoffs(&self) -> usize {
        self.shared.rings().map(|q| q.len()).sum()
    }

    /// Waits for in-flight work to drain: returns `true` once the
    /// software queues have stayed empty for a short quiet period, or
    /// `false` on timeout. Used for graceful shutdown — the cores keep
    /// polling (and replying) while this waits.
    pub fn drain(&self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut quiet = 0u32;
        while quiet < 10 {
            if Instant::now() > deadline {
                return false;
            }
            if self.pending_handoffs() == 0 {
                quiet += 1;
            } else {
                quiet = 0;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        true
    }
}

impl<T: Transport> MinosServer<T> {
    /// Stops the polling threads and joins them. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl<T: Transport> Drop for MinosServer<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The sharding plan as one core last saw it, with what the discipline
/// says this core polls under it — re-derived only when [`run_epoch`]
/// publishes (see [`Shared::plan_version`]), so a poll round takes no
/// lock, touches no shared reference count, allocates no schedule and
/// asks the discipline nothing.
struct PlanCache {
    version: u64,
    plan: Arc<ShardingPlan>,
    /// The RX queues this core drains ([`Discipline::rx_drain`]), `None`
    /// for a core that never touches RX.
    schedule: Option<DrainSchedule>,
    /// This core pulls the shared queue ([`Discipline::pulls_shared`]).
    pulls_shared: bool,
    /// An idle core may take an RX burst from a peer: stealing is on and
    /// every core drains only its own RX queue
    /// ([`Discipline::own_rx_only`]).
    steal_rx: bool,
    /// The RX queues this core watches while it blocks ([`watched`]).
    watch: Vec<u16>,
}

impl PlanCache {
    fn load<T: Transport, C: Clock>(shared: &Shared<T, C>, core: usize) -> Self {
        // Version before plan: a publication racing this load leaves a
        // stale version beside a fresh plan, and the next round reloads.
        let version = shared.plan_version.load(Ordering::Acquire);
        let plan = shared.plan.read().clone();
        let (discipline, config) = (&*shared.discipline, &shared.config);
        let steal_rx = config.steal && discipline.own_rx_only(&plan, BATCH);
        PlanCache {
            version,
            schedule: discipline.rx_drain(core, &plan, BATCH),
            pulls_shared: discipline.pulls_shared(core),
            steal_rx,
            watch: watched(discipline, &plan, config.n_cores, steal_rx, core),
            plan,
        }
    }
}

/// One polling core: the state its thread owns outright and the request
/// path mutates without synchronization.
struct Core<'a, T: Transport, C: Clock> {
    shared: &'a Shared<T, C>,
    /// This core's index: its RX/TX queue pair, its software queue, its
    /// stats and telemetry slots.
    id: usize,
    /// This core's clone of [`Shared::clock`], the only time this core
    /// reads: the queue-wait / service stamps (directly comparable
    /// across cores, since clones share a zero) and the `now` of
    /// [`Core::housekeeping`]. Owned, so a read touches no shared cache
    /// line; on a [`WallClock`] one monotonic read per event, no
    /// syscalls beyond `clock_gettime` (vDSO), no allocation.
    clock: C,
    /// The source address of this core's replies.
    local: Endpoint,
    /// Streaming large-PUT ingest: fragments are copied straight into
    /// their value's reserved mempool block and released; no contiguous
    /// reassembly buffer exists anywhere in the server.
    reassembler: StreamingReassembler<PutIngest>,
    /// Replies staged since the last flush. Empty between poll rounds.
    tx: TxBurst,
    /// The counter half of this core's next reply message id (the
    /// client's fragment reassembly key).
    next_msg_id: u64,
    /// The packets of the RX burst being processed. Empty between poll
    /// rounds; its capacity is kept, so a round allocates nothing.
    rx_buf: Vec<Packet>,
    /// Rounds run, for [`Core::housekeeping`]'s 1-in-64 cadence.
    rounds: u32,
    /// Idle rounds in a row, for [`Core::idle`].
    idle_rounds: u32,
    /// What [`Core::block`] waits on: its wake eventfd and the readiness
    /// fds of the RX queues it watches. Sized for every queue at once,
    /// so filling it allocates nothing.
    poll: PollSet,
    /// This round pushed work onto a software queue or the shared
    /// queue; the blocked cores with work waiting are woken after the
    /// round's next flush ([`Core::wake_pushed`]).
    pushed: bool,
    /// Of those pushes, the ones onto the shared queue: each wakes at
    /// most one blocked puller.
    shared_pushes: usize,
    /// Evictions already folded into the shared gauge; the
    /// reassembler's own counter covers *every* eviction cause (stale
    /// round, capacity, geometry mismatch), all of which drop a live
    /// reservation and must be visible.
    reported_evictions: u64,
}

impl<'a, T: Transport, C: Clock> Core<'a, T, C> {
    fn new(shared: &'a Shared<T, C>, id: usize) -> Self {
        Core {
            shared,
            id,
            clock: shared.clock.clone(),
            local: shared.transport.local_endpoint(id as u16),
            reassembler: StreamingReassembler::new(1024),
            tx: TxBurst::with_capacity(BATCH),
            next_msg_id: 0,
            rx_buf: Vec::with_capacity(BATCH * 2),
            rounds: 0,
            idle_rounds: 0,
            poll: PollSet::with_capacity(shared.config.n_cores + 1),
            pushed: false,
            shared_pushes: 0,
            reported_evictions: 0,
        }
    }

    /// Polls until shutdown: one [`Core::step`] per round, under the
    /// plan this core last loaded, and [`Core::idle`] after a round that
    /// found no work.
    fn run(mut self) {
        let (shared, core) = (self.shared, self.id);
        let mut cached = PlanCache::load(shared, core);
        while !shared.shutdown.load(Ordering::Relaxed) {
            if shared.plan_version.load(Ordering::Acquire) != cached.version {
                cached = PlanCache::load(shared, core);
            }
            if self.step(&cached) {
                self.idle_rounds = 0;
            } else {
                self.idle(&cached);
            }
        }
        debug_assert!(self.tx.is_empty(), "every round ends flushed");
    }

    /// One run-to-completion poll round under `cached`'s plan: read a
    /// burst, execute it, transmit the burst of replies (paper §4.1),
    /// then serve this core's software queue and the shared queue the
    /// same way; an idle round may steal. Returns whether the round
    /// found work.
    fn step(&mut self, cached: &PlanCache) -> bool {
        let shared = self.shared;
        // Everything that needs the time of day rides one cadence
        // (checked only every few rounds to keep the hot loop free of
        // timestamp reads).
        self.rounds = self.rounds.wrapping_add(1);
        if self.rounds & 0x3F == 0 {
            self.housekeeping(self.clock.now_ns());
        }
        if self.reassembler.evicted != self.reported_evictions {
            shared
                .reassembly_evictions
                .add(self.reassembler.evicted - self.reported_evictions);
            self.reported_evictions = self.reassembler.evicted;
        }

        let (mut did_work, mut woke) = (false, false);
        if let Some(schedule) = &cached.schedule {
            let (own, batch) = schedule.own;
            let mut total = shared
                .transport
                .rx_burst(own as u16, &mut self.rx_buf, batch);
            for &(q, quota) in &schedule.others {
                total += shared.transport.rx_burst(q as u16, &mut self.rx_buf, quota);
            }
            if total > 0 {
                did_work = true;
                self.process_burst(&cached.plan);
                // The burst's replies leave together, and before the
                // software queue is served: a small reply never waits
                // behind a large request's execution. Then the cores the
                // burst handed work to are woken.
                self.flush_tx();
                woke = self.wake_pushed();
            }
        }

        // Every core drains its own software queue: dedicated large
        // cores live off it, the standby core serves it alongside small
        // work, a core that just flipped large -> small still flushes
        // stragglers, and fragments wait here for the core that owns
        // their reassembly.
        did_work |= self.serve(&shared.soft_queues[self.id]);

        // The shared queue: every core pulls it under cFCFS (the M/G/k
        // system the paper argues against), the workers under SHO.
        if let Some(queue) = shared.shared_queue.as_ref().filter(|_| cached.pulls_shared) {
            did_work |= self.serve(queue);
        }

        // Work stealing (opt-in): an idle core takes one request from
        // the longest peer software queue, or a peer's RX burst, before
        // going idle.
        if !did_work && shared.config.steal {
            did_work = self.try_steal(cached);
        }

        // What the queued work staged leaves now, so every round ends
        // with the burst empty — shutdown, observed only between rounds,
        // can never strand a staged reply.
        self.flush_tx();
        woke |= self.wake_pushed();

        // A core this round woke finds no idle CPU on a host where
        // every other thread polls, and would wait out a poller's
        // scheduler slice: hand it this one. Every reply the round
        // staged has left, so the yield delays none; where a CPU is
        // free, it finds nothing to run and returns at once.
        if woke {
            let t0 = self.clock.now_ns();
            std::thread::yield_now();
            let yielded = self.clock.now_ns().saturating_sub(t0);
            shared.stats[self.id].record_handover(yielded);
        }
        did_work
    }

    /// What a core does after a poll round that found no work: for
    /// [`SPIN_ROUNDS`] such rounds in a row it polls on, then it blocks
    /// ([`Core::block`]). A core that watches no RX queue blocks at
    /// once: only a push brings it work, and the push wakes it, while
    /// its spin would hold a CPU the pushing core and the clients need
    /// (on 2 shared vCPUs, the standby core's spin after each handoff
    /// raised `churn_evict`'s unloaded small median by half). No idle
    /// core yields: on a shared host a yield leaves the core off-CPU
    /// for a scheduler slice when its next request arrives, where a
    /// blocked core is woken by the arrival. Until a round finds work
    /// again, every idle round blocks. (A waker hands over once: the
    /// yield that ends a round which woke a peer, in [`Core::step`].)
    fn idle(&mut self, cached: &PlanCache) {
        self.idle_rounds = self.idle_rounds.saturating_add(1);
        if self.idle_rounds <= SPIN_ROUNDS && !cached.watch.is_empty() {
            std::hint::spin_loop();
        } else {
            self.block(cached);
        }
    }

    /// Blocks this core in one `ppoll` until an RX queue it watches
    /// ([`PlanCache::watch`]) holds packets, a peer writes its wake
    /// eventfd ([`Shared::wake`]) or [`PARK_TIMEOUT`] passes, unless
    /// work showed up meanwhile: it sets the parked flag, fences, and
    /// re-checks its software queue, the shared queue if it pulls it,
    /// the plan version and shutdown. A watched queue the transport
    /// says is due sooner ([`minos_net::RxReadiness::due_in_ns`])
    /// shortens the wait, and one due now cancels it. After a block,
    /// woken or timed out, it runs [`Core::housekeeping`].
    fn block(&mut self, cached: &PlanCache) {
        let shared = self.shared;
        let spot = &shared.parking[self.id];
        spot.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        self.poll.clear();
        let wake = self.poll.watch(spot.wake.as_raw_fd());
        let mut timeout = PARK_TIMEOUT;
        for &queue in &cached.watch {
            let ready = shared.transport.rx_readiness(queue);
            if let Some(fd) = ready.fd {
                self.poll.watch(fd);
            }
            if let Some(ns) = ready.due_in_ns {
                timeout = timeout.min(Duration::from_nanos(ns));
            }
        }
        let quiet = !timeout.is_zero()
            && shared.soft_queues[self.id].is_empty()
            && !(cached.pulls_shared
                && shared.shared_queue.as_ref().is_some_and(|q| !q.is_empty()))
            && shared.plan_version.load(Ordering::Relaxed) == cached.version
            && !shared.shutdown.load(Ordering::Relaxed);
        if !quiet {
            spot.parked.store(false, Ordering::Relaxed);
            return;
        }
        shared.stats[self.id].record_park();
        let woken = self.poll.wait(timeout) > 0;
        // A waker that found the flag set cleared it and wrote the
        // eventfd; one racing this store may still write it, and the
        // next block then returns at once, for one idle round.
        spot.parked.store(false, Ordering::Relaxed);
        if self.poll.is_ready(wake) {
            spot.wake.drain();
        }
        if woken {
            shared.stats[self.id].record_wake();
        }
        self.housekeeping(self.clock.now_ns());
    }

    /// Notes a successful push onto a software queue, or onto the
    /// shared queue, for [`Core::wake_pushed`].
    fn note_push(&mut self, onto_shared: bool) {
        self.pushed = true;
        self.shared_pushes += usize::from(onto_shared);
    }

    /// After a round that pushed work, wakes every blocked core whose
    /// software queue holds work, and as many blocked pullers of the
    /// shared queue as the round pushed onto it (at most what it still
    /// holds). Called after a flush, so the round's replies have left
    /// before the wakes' syscalls. Returns whether it woke a core.
    fn wake_pushed(&mut self) -> bool {
        if !std::mem::take(&mut self.pushed) {
            return false;
        }
        fence(Ordering::SeqCst);
        let shared = self.shared;
        let waiting = shared.shared_queue.as_ref().map_or(0, HandoffRing::len);
        let mut pullers = std::mem::take(&mut self.shared_pushes).min(waiting);
        let mut woke = false;
        for (core, spot) in shared.parking.iter().enumerate() {
            if !spot.parked.load(Ordering::Relaxed) {
                continue;
            }
            let puller = pullers > 0 && shared.discipline.pulls_shared(core);
            if (puller || !shared.soft_queues[core].is_empty()) && shared.wake(core) {
                pullers -= usize::from(puller);
                woke = true;
            }
        }
        woke
    }

    /// The work that needs the time of day, run every 64th round at
    /// `now` (nanoseconds on the server's clock): the store's capacity
    /// tick, the stale-partial clock and, on core 0, the epoch control
    /// loop.
    fn housekeeping(&mut self, now: u64) {
        let (shared, core) = (self.shared, self.id);
        // Capacity housekeeping: advance the store clock, sweep this
        // core's share of the partitions for expired keys, and run an
        // eviction pass if occupancy sits above the high watermark.
        // No-ops entirely when TTLs were never used and no eviction
        // policy is configured.
        shared.store.capacity_tick(core, shared.config.n_cores, now);
        // The stale-partial eviction clock: a partial untouched for two
        // completed rounds lost a fragment, and holding its reservation
        // any longer just starves the mempool — §4.1 leaves the retry
        // to the client anyway.
        self.reassembler
            .tick(now, shared.config.reassembly_round_ns);
        // Core 0 drives the epoch control loop — in static mode too: the
        // threshold stays pinned but the cost share (and with it the
        // small/large core split) still tracks the observed size mix.
        if core == 0 {
            let deadline = shared.epoch_deadline_ns.load(Ordering::Relaxed);
            if now >= deadline
                && shared
                    .epoch_deadline_ns
                    .compare_exchange(
                        deadline,
                        now + shared.config.epoch_ns,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                run_epoch(shared);
            }
        }
    }

    /// Executes up to a batch of items popped off `queue` (this core's
    /// software queue or the shared queue); returns whether it found
    /// any.
    fn serve(&mut self, queue: &HandoffRing) -> bool {
        let mut served = false;
        for _ in 0..BATCH {
            let Some(item) = queue.pop() else {
                break;
            };
            served = true;
            self.execute_queued(item);
        }
        served
    }

    /// Processes the RX burst in `rx_buf` (drained by this core's
    /// schedule, or stolen from a peer) as this core's arrivals, and
    /// leaves the buffer empty. One rx-dequeue stamp covers the burst:
    /// the packets left the NIC ring together, and per-packet clock
    /// reads would only smear the same instant across a few hundred ns.
    fn process_burst(&mut self, plan: &ShardingPlan) {
        let arrival_ns = self.clock.now_ns();
        let mut rx_buf = std::mem::take(&mut self.rx_buf);
        for pkt in rx_buf.drain(..) {
            self.process_rx_packet(plan, arrival_ns, pkt);
        }
        self.rx_buf = rx_buf;
    }

    /// Hands the staged burst to the transport in one
    /// [`Transport::tx_frames`] call — one `sendmmsg` on the kernel-UDP
    /// backend, its same-destination runs as `UDP_SEGMENT` trains — and
    /// records what the transport accepted. A full ring or socket
    /// buffer tail-drops the rest of the burst FIFO, like hardware
    /// (`transport.tx_dropped`); the client's loss accounting notices.
    fn flush_tx(&mut self) {
        if self.tx.is_empty() {
            return;
        }
        let t0 = self.clock.now_ns();
        let sent = self.tx.flush(&*self.shared.transport, self.id as u16);
        self.shared.stats[self.id].record_tx(sent.packets, sent.frames, sent.bytes);
        self.shared.telemetry[self.id].record_tx_flush(self.clock.now_ns().saturating_sub(t0));
    }

    /// Stages one reply message in this core's transmit burst, drawing
    /// the core's next reply message id — the single place the per-core
    /// `(core << 48) | counter` id scheme lives on the server. The
    /// burst leaves at the end of the poll round's RX or queue phase
    /// ([`Core::step`]), or right here when waiting would cost more than
    /// it saves: a multi-fragment reply is already a burst of its own
    /// (and is fragmented exactly once, into the burst), and a burst
    /// that has reached the RX batch size `B` has its syscall's worth.
    /// Either way the replies staged ahead of it leave first, in order.
    /// `accepts_bundles` is what the request said of its sender
    /// ([`ServerRequest::accepts_bundles`]).
    fn send_reply(&mut self, reply_to: Endpoint, reply: &Message, accepts_bundles: bool) {
        let msg_id = ((self.id as u64) << 48) | (self.next_msg_id & 0xFFFF_FFFF_FFFF);
        self.next_msg_id += 1;
        let datagrams = self
            .tx
            .stage(self.local, reply_to, reply, msg_id, accepts_bundles);
        if datagrams > 1 || self.tx.len() >= BATCH {
            self.flush_tx();
        }
    }

    /// Executes one complete request popped off a software queue (own,
    /// shared, or a steal victim's), recording its queue-wait/service
    /// telemetry.
    fn execute_queued_request(&mut self, req: ServerRequest) {
        let t0 = self.clock.now_ns();
        let wait = t0.saturating_sub(req.arrival_ns);
        let large = self.execute_and_reply(req);
        self.shared.telemetry[self.id].record(
            queued_class(self.shared, large),
            wait,
            self.clock.now_ns().saturating_sub(t0),
        );
    }

    /// Executes one item popped off a software queue.
    fn execute_queued(&mut self, item: Handoff) {
        match item {
            Handoff::Request(req) => self.execute_queued_request(req),
            Handoff::Fragment(pkt, arrival_ns) => self.execute_fragment(pkt, arrival_ns),
        }
    }

    /// One steal attempt by an idle core: pop a request from the
    /// longest peer software queue and execute it here. Fragments are
    /// never stolen — all fragments of one message are pinned to a
    /// single core's reassembler — so one found at the head is pushed
    /// straight back and the attempt abandoned. When every peer software
    /// queue is empty, the attempt moves to the peers' RX queues where
    /// the discipline allows it ([`PlanCache::steal_rx`]).
    fn try_steal(&mut self, cached: &PlanCache) -> bool {
        let (shared, core) = (self.shared, self.id);
        let mut victim = None;
        let mut longest = 0;
        for (i, q) in shared.soft_queues.iter().enumerate() {
            if i != core && q.len() > longest {
                longest = q.len();
                victim = Some(i);
            }
        }
        let Some(victim) = victim else {
            return cached.steal_rx && self.steal_rx_burst(&cached.plan);
        };
        match shared.soft_queues[victim].pop() {
            Some(Handoff::Request(req)) => {
                shared.stats[core].record_steal();
                shared.steal_picks.inc();
                self.execute_queued_request(req);
                true
            }
            Some(frag @ Handoff::Fragment(..)) => {
                // Returning the fragment can only fail if the queue
                // refilled between the pop and this push; that loss is
                // still a drop.
                if shared.soft_queues[victim].push(frag).is_err() {
                    shared.soft_drops.inc();
                }
                false
            }
            None => false,
        }
    }

    /// The second steal level (HKH+WS, §5.2): take one RX burst from the
    /// first peer RX queue holding one, and process it as this core's
    /// own arrivals. A stolen fragment of a message whose first-seen
    /// fragment another core took still reaches that core's reassembler
    /// ([`FlowPins`]).
    fn steal_rx_burst(&mut self, plan: &ShardingPlan) -> bool {
        let (shared, core) = (self.shared, self.id);
        let n = shared.config.n_cores;
        for victim in (1..n).map(|d| (core + d) % n) {
            if shared
                .transport
                .rx_burst(victim as u16, &mut self.rx_buf, BATCH)
                == 0
            {
                continue;
            }
            shared.stats[core].record_steal();
            shared.steal_picks.inc();
            self.process_burst(plan);
            return true;
        }
        false
    }

    /// Streams one large-PUT fragment into this core's ingest
    /// reassembler: the chunk is copied straight into the message's
    /// reserved mempool block (opened on the first-seen fragment) and
    /// the fragment's pooled RX buffer is released immediately. On
    /// completion the reservation is committed under the bucket lock
    /// and the reply staged.
    ///
    /// Fragments are always large-class (only large PUTs fragment),
    /// wherever they execute: popped off a software queue, or on the RX
    /// core itself (standby mode, or a large-skewed threshold). Each is
    /// recorded per *fragment*, not per message: a fragment is one unit
    /// of queue work, and its wait since `arrival_ns` is exactly the
    /// software-queue delay the paper decomposes — a k-fragment PUT
    /// contributes k large-class samples.
    fn execute_fragment(&mut self, pkt: Packet, arrival_ns: u64) {
        let shared = self.shared;
        let t0 = self.clock.now_ns();
        let wait = t0.saturating_sub(arrival_ns);
        let src = pkt.source_endpoint();
        let reply_to = endpoint_of(&pkt);
        // Cheap refcount clone: keeps the chunk reachable for the
        // over-quota reply below after `push` consumes the payload.
        let payload = pkt.payload.clone();
        let mut over_quota = false;
        let streamed =
            self.reassembler.push(src, pkt.payload, |fh| {
                match PutIngest::open_bounded(&shared.store, fh, src, &shared.discard_quota) {
                    OpenOutcome::Open(ingest) => Some(ingest),
                    OpenOutcome::Malformed => None,
                    OpenOutcome::OverQuota => {
                        over_quota = true;
                        None
                    }
                }
            });
        match streamed {
            Streamed::Complete(ingest) => {
                // The reply goes by what the completing fragment says
                // of the sender; every fragment says the same.
                let accepts_bundles = FragHeader::decode(&mut payload.as_slice())
                    .is_some_and(|fh| fh.accepts_bundles);
                self.finish_streamed_put(ingest, reply_to, accepts_bundles)
            }
            Streamed::Incomplete | Streamed::Duplicate => {}
            Streamed::Rejected if over_quota => {
                // The source is hogging discard slots: no ingest state
                // was opened, but the paper's contract (every request
                // gets a reply) still holds when this fragment is the
                // one carrying the application header — answer
                // `OutOfMemory` right here. Header-less fragments of the
                // rejected message are simply dropped.
                let mut rd = payload;
                if let Some(fh) = FragHeader::decode(&mut rd) {
                    if fh.index == 0 {
                        if let Some(reply) = rejected_put_reply(&rd) {
                            self.send_reply(reply_to, &reply, fh.accepts_bundles);
                        }
                    }
                }
            }
            Streamed::Rejected => {
                shared.malformed.inc();
            }
        }
        shared.telemetry[self.id].record(
            ReqClass::Large,
            wait,
            self.clock.now_ns().saturating_sub(t0),
        );
    }

    /// Commits a fully streamed PUT and stages its reply.
    fn finish_streamed_put(
        &mut self,
        ingest: PutIngest,
        reply_to: Endpoint,
        accepts_bundles: bool,
    ) {
        let Some(done) = ingest.commit(&self.shared.store) else {
            self.shared.malformed.inc();
            return;
        };
        self.shared.stats[self.id].record_put(done.is_large());
        self.send_reply(reply_to, &done.reply(), accepts_bundles);
    }

    /// Handles one datagram drained from an RX queue (its own, a
    /// scheduled peer's, or a stolen burst's), frame by frame
    /// ([`frames`]): a bundle's requests are placed one after the
    /// other, exactly as if each had arrived alone.
    /// `arrival_ns` is the rx-dequeue stamp of the burst the datagram
    /// arrived in — the zero point of its queue-wait measurement.
    fn process_rx_packet(&mut self, plan: &ShardingPlan, arrival_ns: u64, pkt: Packet) {
        let shared = self.shared;
        let wire_len = pkt.wire_len() as u64;
        let reply_to = endpoint_of(&pkt);
        let meta = pkt.meta;
        let mut walked = 0;
        for frame in frames(pkt.payload) {
            let Ok(frame) = frame else {
                shared.malformed.inc();
                break;
            };
            walked += 1;
            let fh = frame.header;
            if fh.count > 1 {
                // A fragment has its datagram to itself; downstream it
                // is the packet it always was.
                let payload = frame.into_bytes();
                self.route_fragment(plan, arrival_ns, fh, Packet { meta, payload });
                continue;
            }
            // Single-fragment frame: a complete (small-sized) message.
            let Some(msg) = Message::decode(frame.into_chunk()) else {
                shared.malformed.inc();
                continue;
            };
            self.handle_message(
                plan,
                ServerRequest {
                    msg,
                    reply_to,
                    accepts_bundles: fh.accepts_bundles,
                    arrival_ns,
                },
            );
        }
        shared.stats[self.id].record_rx(1, walked, wire_len);
    }

    /// Routes one fragment of a multi-fragment message — necessarily a
    /// large PUT request — to the core that owns its reassembly. The
    /// item size is knowable from the fragment header alone, so it is
    /// classified without reassembling ("the size is known to the
    /// client and present in the request. There is therefore no need to
    /// do a lookup").
    fn route_fragment(
        &mut self,
        plan: &ShardingPlan,
        arrival_ns: u64,
        fh: FragHeader,
        pkt: Packet,
    ) {
        let (shared, core) = (self.shared, self.id);
        let item_size = u64::from(fh.msg_len).saturating_sub(MSG_HEADER_LEN as u64);
        if fh.index == 0 {
            shared.size_hists[core].record(item_size);
        }
        // All fragments of one message must reach the same
        // reassembler, across plan changes and across the multiple
        // small cores that drain one RX queue — so the target core
        // is pinned on the message's first-seen fragment. The
        // discipline picks the owner; under size-aware sharding that
        // is the plan's range core (or this core itself when the
        // threshold sits above the size — a heavily large-skewed
        // workload).
        let src = pkt.source_endpoint();
        let target = shared.flow_pins.pin(src, fh.msg_id, fh.count, || {
            let key = fragment_key(src, fh.msg_id);
            shared
                .discipline
                .place_fragment(&shared.place_ctx(core, plan, key, Some(item_size)))
        });
        if target == core {
            self.execute_fragment(pkt, arrival_ns);
        } else if shared.soft_queues[target]
            .push(Handoff::Fragment(pkt, arrival_ns))
            .is_err()
        {
            shared.soft_drops.inc();
        } else {
            shared.stats[core].record_handoff();
            self.note_push(false);
        }
    }

    /// Places one complete request per the configured discipline:
    /// executes it inline, pushes it to a peer core's software queue, or
    /// pushes it to the shared queue. Locally executed work
    /// records small-class lifecycle telemetry (queue wait = service
    /// start − rx dequeue); queued work is recorded by the core that
    /// executes it.
    fn handle_message(&mut self, plan: &ShardingPlan, req: ServerRequest) {
        let t0 = self.clock.now_ns();
        let wait = t0.saturating_sub(req.arrival_ns);
        if self.shared.discipline.needs_size() {
            self.handle_message_size_aware(plan, t0, wait, req);
        } else {
            self.handle_message_by_key(plan, t0, wait, req);
        }
    }

    /// Places where the discipline needs the item's size (size-aware
    /// sharding, paper §3): for GETs, one lookup on the RX core decides
    /// — reply directly if the item is small, hand the *request* off if
    /// large (the executing core re-reads).
    fn handle_message_size_aware(
        &mut self,
        plan: &ShardingPlan,
        t0: u64,
        wait: u64,
        req: ServerRequest,
    ) {
        let (shared, core, clock) = (self.shared, self.id, self.clock.clone());
        let record_small = || {
            shared.telemetry[core].record(ReqClass::Small, wait, clock.now_ns().saturating_sub(t0));
        };
        let place = |key: u64, size: u64| {
            shared
                .discipline
                .place(&shared.place_ctx(core, plan, key, Some(size)))
        };
        match &req.msg.body {
            Body::Get { key } => match shared.store.get(*key) {
                None => {
                    shared.size_hists[core].record(0);
                    shared.stats[core].record_get(false);
                    self.reply_direct(&req, ReplyStatus::NotFound, None);
                    record_small();
                }
                Some(value) => {
                    let size = value.len() as u64;
                    shared.size_hists[core].record(size);
                    match place(*key, size) {
                        Placement::Local => {
                            shared.stats[core].record_get(false);
                            self.reply_direct(&req, ReplyStatus::Ok, Some(value));
                            record_small();
                        }
                        placement => {
                            drop(value);
                            self.enqueue_placed(placement, req);
                        }
                    }
                }
            },
            Body::Put { key, value, .. } => {
                let size = value.len() as u64;
                shared.size_hists[core].record(size);
                match place(*key, size) {
                    Placement::Local => {
                        self.execute_and_reply(req);
                        record_small();
                    }
                    placement => self.enqueue_placed(placement, req),
                }
            }
            Body::Delete { .. } => {
                // Deletes carry no payload and free memory; they execute
                // locally (create/delete are PUT variants in the paper
                // and are not discussed further — this is the obvious
                // policy).
                self.execute_and_reply(req);
                record_small();
            }
            _ => {
                // Replies arriving at a server are protocol violations.
                shared.malformed.inc();
            }
        }
    }

    /// Places where the discipline works from the key and queue state
    /// alone (every non-size-aware discipline): no classification lookup
    /// on the RX core — the executing core performs the only store
    /// access, and telemetry classes by what the request turned out to
    /// be.
    fn handle_message_by_key(
        &mut self,
        plan: &ShardingPlan,
        t0: u64,
        wait: u64,
        req: ServerRequest,
    ) {
        let (shared, core) = (self.shared, self.id);
        let (key, size) = match &req.msg.body {
            Body::Get { key } | Body::Delete { key } => (*key, None),
            Body::Put { key, value, .. } => (*key, Some(value.len() as u64)),
            _ => {
                // Replies arriving at a server are protocol violations.
                shared.malformed.inc();
                return;
            }
        };
        // Keep the size statistics (and with them the epoch controller
        // and the `plan.*` telemetry) flowing where the size is knowable
        // without a lookup. The plan these feed is advisory here — no
        // placement consults it.
        if let Some(size) = size {
            shared.size_hists[core].record(size);
        }
        match shared
            .discipline
            .place(&shared.place_ctx(core, plan, key, size))
        {
            Placement::Local => {
                let large = self.execute_and_reply(req);
                let class = if large.unwrap_or(false) {
                    ReqClass::Large
                } else {
                    ReqClass::Small
                };
                shared.telemetry[core].record(class, wait, self.clock.now_ns().saturating_sub(t0));
            }
            placement => self.enqueue_placed(placement, req),
        }
    }

    /// Pushes a placed request onto its target queue — a peer core's
    /// software queue or the shared queue — with the pick
    /// counters and tail-drop accounting. `Placement::Local` is the
    /// caller's job (the two paths reply with different state in hand).
    fn enqueue_placed(&mut self, placement: Placement, req: ServerRequest) {
        let shared = self.shared;
        let (queue, pick) = match placement {
            Placement::Core(target) => (&shared.soft_queues[target], &shared.queue_picks),
            Placement::Shared => (
                shared
                    .shared_queue
                    .as_ref()
                    .expect("a discipline placing Shared pulls the shared queue"),
                &shared.shared_picks,
            ),
            Placement::Local => unreachable!("local placement executes inline"),
        };
        pick.inc();
        if queue.push(Handoff::Request(req)).is_err() {
            shared.soft_drops.inc();
        } else {
            shared.stats[self.id].record_handoff();
            self.note_push(matches!(placement, Placement::Shared));
        }
    }

    /// Stages a reply for a request whose outcome is already known
    /// (small-core fast path: the lookup already happened during
    /// classification).
    fn reply_direct(
        &mut self,
        req: &ServerRequest,
        status: ReplyStatus,
        value: Option<minos_kv::PoolBytes>,
    ) {
        let reply = req.msg.reply(status, value.map(bytes::Bytes::from_owner));
        self.send_reply(req.reply_to, &reply, req.accepts_bundles);
    }

    /// Executes a request on this core (small or large) and stages the
    /// reply on this core's TX queue. Returns whether the item was large
    /// (`None` for malformed requests) so queued-work telemetry can
    /// class by outcome under the non-size-aware disciplines.
    fn execute_and_reply(&mut self, req: ServerRequest) -> Option<bool> {
        let shared = self.shared;
        let Some((status, value, was_get, large)) = execute(&shared.store, &req.msg) else {
            shared.malformed.inc();
            return None;
        };
        if was_get {
            shared.stats[self.id].record_get(large);
        } else {
            shared.stats[self.id].record_put(large);
        }
        let reply = req.msg.reply(status, value.map(bytes::Bytes::from_owner));
        self.send_reply(req.reply_to, &reply, req.accepts_bundles);
        Some(large)
    }
}

/// The telemetry class of work popped off a software queue. Under
/// size-aware sharding queued work is large-class *by route* — the
/// class records the execution path, exactly the paper's decomposition.
/// Under every other discipline smalls and larges share the queues, so
/// requests class by what they turned out to be (`large` from
/// [`execute`]; a malformed request classes small).
fn queued_class<T: Transport, C: Clock>(shared: &Shared<T, C>, large: Option<bool>) -> ReqClass {
    if shared.discipline.kind() == DisciplineKind::SizeAware || large.unwrap_or(false) {
        ReqClass::Large
    } else {
        ReqClass::Small
    }
}

/// The epoch control step (paper §3, "How to find the threshold" +
/// "How to choose the number of small cores").
fn run_epoch<T: Transport, C: Clock>(shared: &Shared<T, C>) {
    let mut aggregate = SizeHistogram::new();
    for hist in &shared.size_hists {
        // Draining swaps each atomic bucket to zero: concurrent records
        // land in this epoch or the next, never lost, and the recording
        // cores are never blocked.
        aggregate.merge(&hist.drain());
    }
    let mut controller = shared.controller.lock();
    let decision = controller.epoch_update(&aggregate);
    let epoch_id = controller.epochs();
    let plan = ShardingPlan::from_decision(
        epoch_id,
        shared.config.n_cores,
        decision,
        controller.smoothed_buckets(),
        CostFn::Packets,
    );
    *shared.plan.write() = Arc::new(plan);
    // Release: a core that sees the new version re-reads the plan
    // (`PlanCache::load`) and must find this one.
    shared.plan_version.fetch_add(1, Ordering::Release);
    shared.epochs.set(epoch_id);
    // A blocked core re-derives what it polls and watches under the
    // new plan.
    shared.wake_all();
}

fn endpoint_of(pkt: &Packet) -> Endpoint {
    Endpoint {
        mac: pkt.meta.eth.src,
        ip: pkt.meta.ip.src,
        port: pkt.meta.udp.src_port,
    }
}

/// Executes `msg` against `store`, returning `(status, reply value,
/// was_get, item_was_large)`; `None` for protocol violations (a reply
/// arriving at the server). The one execution path of every discipline
/// — the paper's design and its baselines execute requests identically
/// (§5.2's fairness requirement).
fn execute(
    store: &Store,
    msg: &Message,
) -> Option<(ReplyStatus, Option<minos_kv::PoolBytes>, bool, bool)> {
    match &msg.body {
        Body::Get { key } => match store.get(*key) {
            Some(value) => {
                let large = value.len() > minos_wire::MAX_FRAG_CHUNK;
                Some((ReplyStatus::Ok, Some(value), true, large))
            }
            None => Some((ReplyStatus::NotFound, None, true, false)),
        },
        Body::Put { key, value, ttl_ms } => {
            let large = value.len() > minos_wire::MAX_FRAG_CHUNK;
            let status = match store.put_with_ttl(*key, value, *ttl_ms) {
                Ok(()) => ReplyStatus::Ok,
                Err(PutError::OutOfMemory) | Err(PutError::TableFull) => ReplyStatus::OutOfMemory,
            };
            Some((status, None, false, large))
        }
        Body::Delete { key } => {
            let found = store.delete(*key);
            Some((
                if found {
                    ReplyStatus::Ok
                } else {
                    ReplyStatus::NotFound
                },
                None,
                false,
                false,
            ))
        }
        _ => None,
    }
}

/// The replies one core has built but not yet sent: the transmit half
/// of the paper's run-to-completion loop (read a batch of `B`, execute,
/// *transmit the batch* — §4.1). Every reply staged while one poll
/// round's requests execute leaves in a single [`Transport::tx_frames`]
/// call, so `k` replies cost one `sendmmsg` instead of `k`.
///
/// This is also where bundles form. A single-fragment reply to a peer
/// that accepts them ([`ServerRequest::accepts_bundles`]) joins the
/// datagram staged just before it when that one is bound for the same
/// peer, holds only such replies and has room ([`stage_message`]): up
/// to four frames within one MTU, so the replies to one client's
/// pipelined requests cross the network stack — the dominant per-reply
/// cost on the kernel-UDP backend — together. Replies to anyone else
/// keep a datagram each, where the backend still coalesces runs of
/// same-destination, equal-length frames into `UDP_SEGMENT` trains.
/// Fragments of a multi-fragment reply never share.
///
/// The one reply encoder: every core stages with [`TxBurst::stage`]
/// and sends with [`TxBurst::flush`] ([`transmit_message`] is exactly
/// that pair on a burst of its own). The buffers keep their capacity
/// across flushes, so a long-lived burst allocates nothing in steady
/// state.
#[derive(Debug, Default)]
pub struct TxBurst {
    frames: Vec<TxPacket>,
    /// On-wire length and frame count of each staged datagram, in step
    /// with `frames` (which the transport drains): the totals of
    /// whatever prefix it accepts.
    staged: Vec<StagedDatagram>,
    /// The last staged datagram, while the next bundle-able reply may
    /// still join it.
    open: Option<usize>,
}

#[derive(Clone, Copy, Debug)]
struct StagedDatagram {
    wire_len: u32,
    frames: u32,
}

/// What one [`TxBurst::flush`] handed the transport and it accepted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxFlushed {
    /// Datagrams.
    pub packets: u64,
    /// Wire frames inside those datagrams (at least one each).
    pub frames: u64,
    /// On-wire bytes.
    pub bytes: u64,
}

impl TxBurst {
    /// An empty burst.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty burst with room for `frames` datagrams.
    pub fn with_capacity(frames: usize) -> Self {
        TxBurst {
            frames: Vec::with_capacity(frames),
            staged: Vec::with_capacity(frames),
            open: None,
        }
    }

    /// Datagrams staged and not yet flushed.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Encodes and fragments `msg` from `src` to `dst` behind whatever
    /// is already staged; returns how many datagrams it became — none
    /// when `accepts_bundles` (the receiver walks datagrams frame by
    /// frame) let it join the datagram staged before it.
    ///
    /// The whole reply is scatter-gather end to end: the value leaves
    /// the store as refcounted mempool memory (`PoolBytes` →
    /// `Bytes::from_owner`), [`Message::encode_frame`] appends it to the
    /// reply frame as a segment, fragmentation slices it per datagram
    /// straight into the burst (a bundle takes the segment as it is),
    /// and the flush hands header-iovec + value-iovec pairs to the
    /// transport — the value bytes are never copied (nor, since the
    /// datagram's checksum is the kernel's job, even read) on this
    /// path, an invariant the transport's `tx_copied_bytes` gauge
    /// asserts.
    pub fn stage(
        &mut self,
        src: Endpoint,
        dst: Endpoint,
        msg: &Message,
        msg_id: u64,
        accepts_bundles: bool,
    ) -> usize {
        let first = self.frames.len();
        // The flag on the reply echoes the request's: a peer that never
        // set it is answered byte for byte as before the flag existed,
        // one that did learns this server walks bundles too.
        let (datagrams, carrier) = stage_message(
            &mut self.frames,
            self.open.filter(|_| accepts_bundles),
            src,
            dst,
            msg_id,
            accepts_bundles,
            &msg.encode_frame(),
        );
        self.open = carrier.filter(|_| accepts_bundles);
        if datagrams == 0 {
            let joined = carrier.expect("a frame that added no datagram joined one");
            self.staged[joined].wire_len = self.frames[joined].wire_len() as u32;
            self.staged[joined].frames += 1;
            return 0;
        }
        // Every fragment but the last carries a full chunk, so two
        // lengths describe the message — no per-fragment measuring on
        // the latency path, whatever the reply's size.
        let datagram = |pkt: &TxPacket| StagedDatagram {
            wire_len: pkt.wire_len() as u32,
            frames: 1,
        };
        let full = datagram(&self.frames[first]);
        let last = datagram(&self.frames[first + datagrams - 1]);
        self.staged.extend(std::iter::repeat_n(full, datagrams - 1));
        self.staged.push(last);
        datagrams
    }

    /// Sends everything staged on `tx_queue` of `transport` in one
    /// [`Transport::tx_frames`] call and empties the burst. Returns
    /// what the transport accepted: a full ring or socket buffer
    /// tail-drops the rest FIFO, like hardware, and the client's loss
    /// accounting notices.
    pub fn flush<T: Transport + ?Sized>(&mut self, transport: &T, tx_queue: u16) -> TxFlushed {
        let sent = transport.tx_frames(tx_queue, &mut self.frames);
        // `tx_frames` drains by contract; a backend that left refused
        // frames behind must not see them lead the next burst.
        self.frames.clear();
        self.open = None;
        let mut flushed = TxFlushed {
            packets: sent as u64,
            ..TxFlushed::default()
        };
        for datagram in &self.staged[..sent] {
            flushed.frames += u64::from(datagram.frames);
            flushed.bytes += u64::from(datagram.wire_len);
        }
        self.staged.clear();
        flushed
    }
}

/// Encodes, fragments and transmits one message to `dst` on `tx_queue`
/// at once: [`TxBurst::stage`] then [`TxBurst::flush`] on a burst of
/// its own, for callers with no poll round to amortize over (so
/// nothing to bundle with). Returns what the transport accepted.
pub fn transmit_message<T: Transport + ?Sized>(
    transport: &T,
    tx_queue: u16,
    src: Endpoint,
    dst: Endpoint,
    msg: &Message,
    msg_id: u64,
) -> TxFlushed {
    let mut burst = TxBurst::new();
    burst.stage(src, dst, msg, msg_id, false);
    burst.flush(transport, tx_queue)
}

#[cfg(test)]
mod tests {
    use super::{
        register_collectors, watched, Core, FlowPins, PlanCache, ServerConfig, Shared, BATCH,
        SERVER_HOST_ID,
    };
    use crate::allocation::{allocate, CoreAllocation};
    use crate::config::ThresholdMode;
    use crate::dispatch::DisciplineKind;
    use crate::plan::ShardingPlan;
    use minos_net::VirtualTransport;
    use minos_nic::{NicConfig, VirtualNic};
    use minos_obs::{HistSummary, ManualClock, MetricValue};
    use minos_stats::AtomicLogHistogram;
    use minos_wire::frag::fragment_with_id;
    use minos_wire::message::{Body, Message};
    use minos_wire::packet::{synthesize, Endpoint, Packet};
    use minos_wire::udp::UdpHeader;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    mod idle_alloc;

    /// A single-frame PUT of `len` bytes under `key`, as it reaches RX
    /// queue 0.
    fn put_packet(key: u64, len: usize) -> Packet {
        let msg = Message {
            client_id: 1,
            request_id: key,
            client_ts_ns: 0,
            body: Body::Put {
                key,
                value: bytes::Bytes::from(vec![7u8; len]),
                ttl_ms: 0,
            },
        };
        let frags = fragment_with_id(key, &msg.encode());
        assert_eq!(frags.len(), 1);
        let src = Endpoint::host(100, 20_000);
        let dst = Endpoint::host(SERVER_HOST_ID, UdpHeader::port_for_queue(0));
        synthesize(src, dst, frags[0].clone())
    }

    #[test]
    fn a_stepped_core_is_a_function_of_its_inputs() {
        const T0: u64 = 1_000_000;
        const T1: u64 = T0 + 37_000;
        // Two cores in standby under a 512 B static threshold: core 0
        // executes a small PUT inline and hands a 1 000 B one to core 1.
        let script = || {
            let mut config = ServerConfig::for_test(2, 1_000);
            config.minos.threshold_mode = ThresholdMode::Static(512);
            let nic = Arc::new(VirtualNic::new(NicConfig::new(2)));
            let clock = ManualClock::default();
            let transport = Arc::new(VirtualTransport::new(Arc::clone(&nic)));
            let shared = Arc::new(Shared::new(&config, transport, clock.clone()));
            register_collectors(&shared);
            let (cached0, cached1) = (PlanCache::load(&*shared, 0), PlanCache::load(&*shared, 1));
            let (mut core0, mut core1) = (Core::new(&*shared, 0), Core::new(&*shared, 1));

            clock.set(T0);
            nic.deliver_packet(put_packet(1, 100));
            nic.deliver_packet(put_packet(2, 1_000));
            assert!(core0.step(&cached0));
            clock.set(T1);
            assert!(core1.step(&cached1));
            shared.registry.snapshot().entries
        };

        let entries = script();
        let metric = |name: &str| {
            entries
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("no {name}"))
        };
        assert_eq!(metric("core.0.handoffs"), MetricValue::Counter(1));
        let one_sample = |ns: u64| {
            let h = AtomicLogHistogram::latency();
            h.record(ns);
            MetricValue::Hist(HistSummary::from_hist(&h.load()))
        };
        assert_eq!(metric("core.0.small.queue_wait_ns"), one_sample(0));
        assert_eq!(metric("core.1.large.queue_wait_ns"), one_sample(T1 - T0));
        // The clock does not move during a step: every service and
        // flush time is 0.
        for (name, value) in &entries {
            if name.ends_with(".service_ns") || name.ends_with(".tx_flush_ns") {
                let h = value.as_hist().expect("a histogram");
                assert_eq!(h.max, 0, "{name}");
            }
        }
        assert_eq!(entries, script(), "a rerun reads the same metrics");
    }

    /// A clock that moves 1 ns at every read, so a span between two
    /// reads with none in between reads exactly 1.
    #[derive(Clone, Default)]
    struct TickingClock(Arc<std::sync::atomic::AtomicU64>);

    impl minos_obs::Clock for TickingClock {
        fn now_ns(&self) -> u64 {
            self.0.fetch_add(1, Ordering::Relaxed)
        }
    }

    #[test]
    fn a_round_that_wakes_a_parked_core_hands_it_the_cpu_once() {
        // Under standby (a 512 B static threshold) core 0 hands a
        // 1 000 B PUT to core 1 and runs a 100 B one inline; under sho
        // with one dispatch core it pushes every request onto the
        // shared queue core 1 pulls. Each case steps one round of core
        // 0 on a fresh server with core 1's parked flag set by hand:
        // (discipline, PUT bytes, core 1 parked, the round pushes to it).
        // The clock ticks per read, so a handover's two reads around
        // the yield add exactly 1 to `handover_ns`.
        let standby: fn(&mut ServerConfig) =
            |config| config.minos.threshold_mode = ThresholdMode::Static(512);
        let sho: fn(&mut ServerConfig) =
            |config| config.minos.discipline = DisciplineKind::Sho { handoff: 1 };
        let cases = [
            (standby, 1_000, true, true),
            (standby, 1_000, false, true),
            (standby, 100, true, false),
            (sho, 100, true, true),
            (sho, 100, false, true),
        ];
        for (case, (discipline, len, parked, pushes)) in cases.into_iter().enumerate() {
            let mut config = ServerConfig::for_test(2, 1_000);
            discipline(&mut config);
            let nic = Arc::new(VirtualNic::new(NicConfig::new(2)));
            let transport = Arc::new(VirtualTransport::new(Arc::clone(&nic)));
            let shared = Arc::new(Shared::new(&config, transport, TickingClock::default()));
            register_collectors(&shared);
            let (cached0, cached1) = (PlanCache::load(&*shared, 0), PlanCache::load(&*shared, 1));
            let (mut core0, mut core1) = (Core::new(&*shared, 0), Core::new(&*shared, 1));
            let spot = &shared.parking[1];
            // (`core.0.handovers`, `core.0.handover_ns`)
            let handovers = || {
                let entries = shared.registry.snapshot().entries;
                let counter = |name: &str| match entries.iter().find(|(n, _)| n == name) {
                    Some((_, MetricValue::Counter(v))) => *v,
                    other => panic!("{name}: {other:?}"),
                };
                (counter("core.0.handovers"), counter("core.0.handover_ns"))
            };
            // Only a push to a blocked core wakes it: the wake clears
            // its flag and writes its eventfd, and the round ends in
            // one handover.
            let woken = parked && pushes;
            spot.parked.store(parked, Ordering::Relaxed);
            nic.deliver_packet(put_packet(1, len));
            assert!(core0.step(&cached0), "case {case}");
            assert_eq!(
                spot.parked.load(Ordering::Relaxed),
                parked && !pushes,
                "case {case}: the wake cleared the flag"
            );
            assert_eq!(spot.wake.drain(), woken, "case {case}: eventfd written");
            let handed = (u64::from(woken), u64::from(woken));
            assert_eq!(handovers(), handed, "case {case}");
            assert_eq!(
                core1.step(&cached1),
                pushes,
                "case {case}: core 1 serves it"
            );
            let core1_stats = shared.stats[1].snapshot();
            assert_eq!(
                (core1_stats.handovers, core1_stats.handover_ns),
                (0, 0),
                "case {case}"
            );
            assert!(!core0.step(&cached0), "case {case}: an idle round");
            assert_eq!(
                handovers(),
                handed,
                "case {case}: an idle round hands nothing over and times no yield"
            );
        }
    }

    #[test]
    fn stale_partial_is_evicted_two_rounds_after_the_clock_is_armed() {
        const R: u64 = 1_000_000;
        let mut config = ServerConfig::for_test(1, 1_000);
        config.minos.reassembly_round_ns = R;
        let nic = Arc::new(VirtualNic::new(NicConfig::new(1)));
        let shared = Shared::new(
            &config,
            Arc::new(VirtualTransport::new(Arc::clone(&nic))),
            ManualClock::default(),
        );
        let cached = PlanCache::load(&shared, 0);
        let mut core = Core::new(&shared, 0);

        // `armed` is a housekeeping pass that finds nothing pending. Two
        // of a three-fragment PUT's fragments then arrive and one round
        // opens the partial; the third fragment is lost.
        let mut lose_a_fragment = |armed: u64, msg_id: u64, evictions: u64| {
            core.housekeeping(armed);
            let msg = Message {
                client_id: 1,
                request_id: msg_id,
                client_ts_ns: 0,
                body: Body::Put {
                    key: msg_id,
                    value: bytes::Bytes::from(vec![7u8; 2 * minos_wire::MAX_FRAG_CHUNK]),
                    ttl_ms: 0,
                },
            };
            let frags = fragment_with_id(msg_id, &msg.encode());
            assert_eq!(frags.len(), 3);
            let src = Endpoint::host(100, 20_000);
            let dst = Endpoint::host(SERVER_HOST_ID, UdpHeader::port_for_queue(0));
            for frag in &frags[..2] {
                nic.deliver_packet(synthesize(src, dst, frag.clone()));
            }
            assert!(core.step(&cached), "the round found the fragments");
            assert_eq!(core.reassembler.pending(), 1);
            assert!(shared.store.mempool().used_bytes() > 0, "reserved");

            // Every pass before two rounds have passed keeps it...
            for t in (armed..armed + 2 * R).step_by(R as usize / 4) {
                core.housekeeping(t);
                assert_eq!(core.reassembler.pending(), 1, "evicted at {t}");
            }
            // ...and the first at two rounds evicts it.
            core.housekeeping(armed + 2 * R);
            assert_eq!(core.reassembler.pending(), 0, "kept at two rounds");
            assert_eq!(shared.store.mempool().used_bytes(), 0, "released");
            assert!(!core.step(&cached), "nothing left to do");
            assert_eq!(shared.reassembly_evictions.get(), evictions);
        };
        lose_a_fragment(0, 1, 1);
        // After a long idle stretch the clock re-arms at the idle pass,
        // so the next partial still gets its full grace period...
        lose_a_fragment(100 * R, 2, 2);
        // ...and so it does when the idle pass comes before the round
        // left standing by the last eviction (due at 103 R) would close.
        lose_a_fragment(102 * R + R / 2, 3, 3);
    }

    /// The RX queues each core watches while it blocks, under `edit`'s
    /// config of `n` cores and, if given, the allocation `alloc`
    /// published as a plan; with the allocation in force.
    fn watchers(
        n: usize,
        alloc: Option<CoreAllocation>,
        edit: impl FnOnce(&mut ServerConfig),
    ) -> (CoreAllocation, Vec<Vec<u16>>) {
        let mut config = ServerConfig::for_test(n, 1_000);
        edit(&mut config);
        let nic = Arc::new(VirtualNic::new(NicConfig::new(n as u16)));
        let transport = Arc::new(VirtualTransport::new(nic));
        let shared = Shared::new(&config, transport, ManualClock::default());
        if let Some(allocation) = alloc {
            let plan = ShardingPlan {
                allocation,
                ..(**shared.plan.read()).clone()
            };
            *shared.plan.write() = Arc::new(plan);
            shared.plan_version.fetch_add(1, Ordering::Release);
        }
        let cached: Vec<PlanCache> = (0..n).map(|core| PlanCache::load(&shared, core)).collect();
        let watch = cached.iter().map(|c| c.watch.clone()).collect();
        (cached[0].plan.allocation, watch)
    }

    #[test]
    fn cores_watch_their_rx_queues_only_where_they_drain_one_alone() {
        let standby = |c: &mut ServerConfig| c.minos.threshold_mode = ThresholdMode::Static(512);
        // Standby: core 0 drains its own queue alone and the standby
        // core's at quota B/n_s, so it watches both; the standby core's
        // one queue is core 0's too, and only pushes wake it.
        let (alloc, watch) = watchers(2, None, standby);
        assert!(alloc.standby);
        assert_eq!(watch, [vec![0, 1], vec![]]);
        // Dedicated large cores never touch RX.
        let (alloc, watch) = watchers(2, Some(allocate(2, 0.5)), standby);
        assert_eq!((alloc.n_large, watch), (1, vec![vec![0, 1], vec![]]));
        let (alloc, watch) = watchers(4, Some(allocate(4, 0.5)), |_| {});
        let small = |own| vec![own, 2, 3];
        assert_eq!(
            (alloc.n_large, watch),
            (2, vec![small(0), small(1), vec![], vec![]])
        );
        // A lone core is the only drainer of its queue.
        assert_eq!(watchers(1, None, |_| {}).1, [vec![0]]);
        // sho: the dispatch core watches every queue, the workers none.
        let sho = |c: &mut ServerConfig| c.minos.discipline = DisciplineKind::Sho { handoff: 1 };
        assert_eq!(watchers(3, None, sho).1, [vec![0, 1, 2], vec![], vec![]]);
        // Every core of hkh, dfcfs and cfcfs drains its own queue alone.
        for kind in [
            DisciplineKind::Hkh,
            DisciplineKind::Dfcfs,
            DisciplineKind::Cfcfs,
        ] {
            let watch = watchers(3, None, |c| c.minos.discipline = kind).1;
            assert_eq!(watch, [vec![0], vec![1], vec![2]], "{kind:?}");
            // A thief watches every queue it may steal a burst from.
            let stealing = |c: &mut ServerConfig| {
                c.minos.discipline = kind;
                c.minos.steal = true;
            };
            assert_eq!(
                watchers(3, None, stealing).1,
                vec![vec![0, 1, 2]; 3],
                "{kind:?}"
            );
        }
        // Stealing from soft queues alone changes no watch set.
        let stealing = |c: &mut ServerConfig| c.minos.steal = true;
        let (_, watch) = watchers(4, Some(allocate(4, 0.5)), stealing);
        assert_eq!(watch, [small(0), small(1), vec![], vec![]]);
    }

    #[test]
    fn every_rx_queue_is_watched_under_every_plan() {
        // Every discipline, 1-8 cores, every allocation (standby
        // included), stealing on and off: a packet on any RX queue wakes
        // some blocked core, so none waits for a timeout. The watch sets
        // are the ones `PlanCache::load` derives.
        for kind in DisciplineKind::ALL {
            let discipline = kind.build();
            for n in 1..=8usize {
                if matches!(kind, DisciplineKind::Sho { handoff } if handoff >= n) {
                    continue; // sho needs a worker
                }
                for n_small in 1..=n {
                    let plan = ShardingPlan {
                        allocation: CoreAllocation {
                            n_cores: n,
                            n_small,
                            n_large: n - n_small,
                            standby: n_small == n,
                        },
                        ..ShardingPlan::bootstrap(n)
                    };
                    for steal in [false, true] {
                        let steal_rx = steal && discipline.own_rx_only(&plan, BATCH);
                        let watch: Vec<Vec<u16>> = (0..n)
                            .map(|core| watched(&*discipline, &plan, n, steal_rx, core))
                            .collect();
                        for queue in 0..n as u16 {
                            assert!(
                                watch.iter().any(|w| w.contains(&queue)),
                                "{kind:?} {:?} steal={steal}: queue {queue} unwatched in {watch:?}",
                                plan.allocation
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn flow_pins_evict_the_oldest_live_pin() {
        // Pin A, B and C (two fragments each), complete A and B, then pin
        // D, E and F: the fourth live pin overflows the cap of 3, and the
        // oldest live one is C, still streaming its second fragment.
        let pins = FlowPins::new(3);
        for msg_id in [1, 2, 3, 1, 2, 4, 5, 6] {
            pins.pin(7, msg_id, 2, || msg_id as usize);
        }
        // D kept its pin; C lost its and is pinned afresh.
        assert_eq!(pins.pin(7, 4, 2, || 99), 4);
        assert_eq!(pins.pin(7, 3, 2, || 99), 99);
    }
}
