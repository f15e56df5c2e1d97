//! Event-level models of the four server designs.
//!
//! One event loop serves all four systems; the scheduling decisions —
//! who picks which request up, and at what cost — are the per-system
//! logic under test:
//!
//! * **HKH**: a request enqueued on core `c`'s RX queue is served by
//!   core `c`, run-to-completion, FIFO.
//! * **HKH+WS**: as HKH, but an idle core with an empty queue steals
//!   one queued request from another core (at [`CostModel::steal_ns`]
//!   extra).
//! * **SHO**: RX queues belong to the `h` handoff cores, which spend
//!   [`CostModel::sho_dispatch_ns`] per request moving it to a central
//!   queue; idle workers take from the central queue (late binding).
//! * **Minos**: small cores serve their own RX queues plus the large
//!   cores' RX queues; small requests run to completion, large ones
//!   cost a dispatch and move to the software queue of the large core
//!   whose size range matches. The plan (threshold, allocation, ranges)
//!   is recomputed every epoch by the **real** `minos-core` controller.
//!
//! Item sizes, key skew and arrival times come from the real
//! `minos-workload` generator over the paper's 16 M-key dataset.
//!
//! Beyond the four paper systems, [`System::Discipline`] runs the
//! server crate's queue-discipline policy space ([`DisciplineKind`]) in
//! simulation: `size-aware` is exactly [`System::Minos`], `hkh` and
//! `sho` are [`System::Hkh`] and [`System::Sho`], `cfcfs` is a
//! single central queue any core pulls from, and the rest differ only
//! in which RX queue an arrival joins (key-hash for `dfcfs`, shortest
//! for `jsq`, rotating for `round-robin`, uniform for `random`) before
//! own-queue FIFO service — the same placement semantics the real
//! server applies in `minos-core`.

use crate::cost_model::CostModel;
use minos_core::config::{AllocationPolicy, ThresholdMode};
use minos_core::dispatch::{Dfcfs, DisciplineKind};
use minos_core::plan::{Destination, ShardingPlan};
use minos_core::threshold::ThresholdController;
use minos_queue_sim::EventQueue;
use minos_stats::{LatencyHistogram, SizeHistogram};
use minos_workload::{AccessGenerator, OpenLoop, Operation, PhaseSchedule, Rng};
use std::collections::VecDeque;

/// Which server design to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Size-aware sharding (the paper's contribution).
    Minos,
    /// Hardware keyhash sharding (MICA-style, nxM/G/1).
    Hkh,
    /// Software handoff (RAMCloud-style, M/G/n) with this many handoff
    /// cores (the paper sweeps 1–3 and reports the best).
    Sho {
        /// Number of dispatch cores.
        handoff: usize,
    },
    /// HKH plus ZygOS-style work stealing.
    HkhWs,
    /// One of the server crate's queue disciplines, simulated with the
    /// same placement semantics the real server applies.
    Discipline(DisciplineKind),
}

impl System {
    /// Display label matching the paper's figures (discipline systems
    /// use their CLI/JSON name).
    pub fn label(&self) -> &'static str {
        match self {
            System::Minos => "Minos",
            System::Hkh => "HKH",
            System::Sho { .. } => "SHO",
            System::HkhWs => "HKH+WS",
            System::Discipline(kind) => kind.name(),
        }
    }

    /// Whether this system is the paper's size-aware sharding (and so
    /// runs the epoch controller and the asymmetric RX drain).
    fn size_aware(&self) -> bool {
        matches!(
            self,
            System::Minos | System::Discipline(DisciplineKind::SizeAware)
        )
    }

    /// Whether arrivals land in the single central queue rather than a
    /// per-core RX queue (cFCFS; SHO routes through dispatch cores
    /// instead).
    fn central_rx(&self) -> bool {
        matches!(self, System::Discipline(DisciplineKind::Cfcfs))
    }
}

/// Static configuration of the simulated server.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// The design to simulate.
    pub system: System,
    /// Server cores (8 in the paper).
    pub n_cores: usize,
    /// The calibrated cost model.
    pub cost: CostModel,
    /// NIC bandwidth per direction, Gbit/s (40 in the paper).
    pub nic_gbit: f64,
    /// Minos controller epoch (1 s in the paper).
    pub epoch_ns: u64,
    /// Fraction of replies actually transmitted (Figure 8's `S`; 1.0
    /// everywhere else). Suppressed replies cost no NIC bandwidth.
    pub reply_sampling: f64,
    /// Minos threshold mode.
    pub threshold_mode: ThresholdMode,
    /// Minos allocation policy (`LargeSteals` is the §6.1 ablation).
    pub allocation_policy: AllocationPolicy,
}

impl SystemConfig {
    /// The paper's server for a given design.
    pub fn paper(system: System) -> Self {
        SystemConfig {
            system,
            n_cores: 8,
            cost: CostModel::default(),
            nic_gbit: 40.0,
            epoch_ns: 1_000_000_000,
            reply_sampling: 1.0,
            threshold_mode: ThresholdMode::Dynamic,
            allocation_policy: AllocationPolicy::Standard,
        }
    }
}

/// What a busy core is currently doing.
#[derive(Clone, Copy, Debug)]
enum Stage {
    /// Full service; completion sends the reply.
    Full { req: u32, stolen: bool },
    /// Minos small-core dispatch of a large request to `target`.
    MinosDispatch { req: u32, target: usize },
    /// SHO handoff-core dispatch to the central queue.
    ShoDispatch { req: u32 },
}

#[derive(Clone, Copy, Debug)]
struct Req {
    arrival_ns: u64,
    size: u64,
    is_get: bool,
    is_large_class: bool,
    measured: bool,
}

#[derive(Debug)]
enum Ev {
    /// Generate the next request (and its successor).
    Arrival,
    /// A core finished its current stage.
    CoreDone { core: usize },
    /// Minos epoch tick.
    Epoch,
    /// One packet finished serializing on the TX wire.
    TxPacketDone,
    /// One packet finished serializing on the RX wire.
    RxPacketDone,
}

/// A message being serialized onto a wire, packet by packet.
#[derive(Clone, Copy, Debug)]
struct WireJob {
    req: u32,
    pkts_left: u64,
    bytes_left: u64,
    /// TX: reply completion. RX: the target RX queue.
    queue: usize,
}

/// A packet-interleaving wire: one packet at a time, round-robin across
/// per-queue job lists — how a real multi-queue NIC DMA engine behaves.
/// A single-packet reply never waits behind an entire multi-hundred-
/// packet large reply; it waits at most a few packet times.
#[derive(Debug)]
struct PacketWire {
    queues: Vec<VecDeque<WireJob>>,
    rr: usize,
    busy: bool,
    bytes_per_ns: f64,
    bytes_total: u64,
    busy_ns: f64,
}

impl PacketWire {
    fn new(n_queues: usize, gbit: f64) -> Self {
        PacketWire {
            queues: vec![VecDeque::new(); n_queues],
            rr: 0,
            busy: false,
            bytes_per_ns: gbit / 8.0,
            bytes_total: 0,
            busy_ns: 0.0,
        }
    }

    fn submit(&mut self, queue: usize, job: WireJob) {
        self.queues[queue].push_back(job);
    }

    /// Starts serializing the next packet (round-robin); returns its
    /// duration in ns, or `None` if all queues are empty.
    fn next_packet_ns(&mut self) -> Option<f64> {
        let n = self.queues.len();
        for d in 0..n {
            let q = (self.rr + d) % n;
            if let Some(job) = self.queues[q].front_mut() {
                let pkt_bytes = job.bytes_left.div_ceil(job.pkts_left);
                job.bytes_left -= pkt_bytes.min(job.bytes_left);
                job.pkts_left -= 1;
                self.rr = (q + 1) % n;
                self.busy = true;
                self.bytes_total += pkt_bytes;
                let dur = pkt_bytes as f64 / self.bytes_per_ns;
                self.busy_ns += dur;
                return Some(dur);
            }
        }
        self.busy = false;
        None
    }

    /// Pops the front job of the queue the last packet belonged to if
    /// that job is finished. (`rr` already advanced past it.)
    fn finished_job(&mut self) -> Option<WireJob> {
        let n = self.queues.len();
        let q = (self.rr + n - 1) % n;
        if self.queues[q].front().is_some_and(|j| j.pkts_left == 0) {
            return self.queues[q].pop_front();
        }
        None
    }

    fn utilization(&self, span_ns: f64) -> f64 {
        if span_ns <= 0.0 {
            0.0
        } else {
            (self.busy_ns / span_ns).min(1.0)
        }
    }
}

/// Per-core load counters (Figure 9).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreLoad {
    /// Requests completed by this core.
    pub ops: u64,
    /// Packets handled (inbound at pickup + outbound at reply).
    pub packets: u64,
}

/// The simulator.
pub struct SystemSim {
    cfg: SystemConfig,
    rng: Rng,
    gen: AccessGenerator,
    arrivals: OpenLoop,
    schedule: Option<PhaseSchedule>,
    events: EventQueue<Ev>,
    now_ns: u64,

    // Request slab.
    reqs: Vec<Req>,
    free: Vec<u32>,

    // Queues.
    rx: Vec<VecDeque<u32>>,
    soft: Vec<VecDeque<u32>>,
    central: VecDeque<u32>, // SHO

    // Cores.
    busy: Vec<Option<Stage>>,

    // Minos control plane (the real one).
    controller: ThresholdController,
    plan: ShardingPlan,
    epoch_hist: SizeHistogram,

    // Network: packet-interleaving wires.
    tx_wire: PacketWire,
    rx_wire: PacketWire,

    // Measurement.
    measure_start_ns: u64,
    measure_end_ns: u64,
    hist: LatencyHistogram,
    hist_small: LatencyHistogram,
    hist_large: LatencyHistogram,
    window_ns: u64,
    windows: Vec<WindowAccum>,
    /// Measured-request completions.
    pub completed: u64,
    /// Measured-request generations.
    pub generated: u64,
    per_core: Vec<CoreLoad>,
    steals: u64,
    /// Round-robin arrival cursor (`Discipline(RoundRobin)` only).
    rr_arrival: usize,
    /// Requests committed to an RX queue but still serializing on the
    /// RX wire. JSQ's depth gauge must count them: choosing by
    /// `rx[q].len()` alone herds a burst of arrivals onto the same
    /// "shortest" queue before any of them become visible in it.
    rx_inflight: Vec<u32>,
}

/// Accumulator for one reporting window (Figure 10).
#[derive(Debug)]
pub struct WindowAccum {
    /// Window latency histogram.
    pub hist: LatencyHistogram,
    /// Large cores in the plan during this window (Minos; 0 otherwise).
    pub n_large: usize,
    /// Completions in this window.
    pub completed: u64,
}

impl SystemSim {
    /// Builds a simulator.
    ///
    /// * `gen` — the workload generator (dataset + p_L + mix).
    /// * `rate_mops` — offered load in millions of requests/second.
    /// * `schedule` — optional time-varying p_L (Figure 10).
    /// * `window_ns` — reporting-window length (0 disables windows).
    pub fn new(
        cfg: SystemConfig,
        gen: AccessGenerator,
        rate_mops: f64,
        schedule: Option<PhaseSchedule>,
        window_ns: u64,
        seed: u64,
    ) -> Self {
        assert!(cfg.n_cores > 0);
        assert!((0.0..=1.0).contains(&cfg.reply_sampling));
        if let System::Sho { handoff } | System::Discipline(DisciplineKind::Sho { handoff }) =
            cfg.system
        {
            assert!(handoff >= 1 && handoff < cfg.n_cores);
        }
        let mut rng = Rng::new(seed);
        let arrivals = OpenLoop::new(rate_mops * 1e6, 0);
        let controller = ThresholdController::new(
            cfg.threshold_mode,
            99.0,
            0.9,
            minos_core::cost::CostFn::Packets,
        );
        let plan = ShardingPlan::bootstrap(cfg.n_cores);
        let mut events = EventQueue::new();
        events.push(0, Ev::Arrival);
        if cfg.system.size_aware() {
            events.push(cfg.epoch_ns, Ev::Epoch);
        }
        let n = cfg.n_cores;
        let _ = rng.next_u64(); // decouple seed streams a little
        SystemSim {
            rng,
            gen,
            arrivals,
            schedule,
            events,
            now_ns: 0,
            reqs: Vec::with_capacity(1 << 16),
            free: Vec::new(),
            rx: vec![VecDeque::new(); n],
            soft: vec![VecDeque::new(); n],
            central: VecDeque::new(),
            busy: vec![None; n],
            rx_inflight: vec![0; n],
            controller,
            plan,
            epoch_hist: SizeHistogram::new(),
            tx_wire: PacketWire::new(n, cfg.nic_gbit),
            rx_wire: PacketWire::new(n, cfg.nic_gbit),
            measure_start_ns: 0,
            measure_end_ns: u64::MAX,
            hist: LatencyHistogram::new(),
            hist_small: LatencyHistogram::new(),
            hist_large: LatencyHistogram::new(),
            window_ns,
            windows: Vec::new(),
            completed: 0,
            generated: 0,
            per_core: vec![CoreLoad::default(); n],
            steals: 0,
            rr_arrival: 0,
            cfg,
        }
    }

    /// Sets the measurement window (requests generated inside it are
    /// measured; the paper discards the first and last 10 s of 60 s
    /// runs).
    pub fn set_measure_window(&mut self, start_ns: u64, end_ns: u64) {
        self.measure_start_ns = start_ns;
        self.measure_end_ns = end_ns;
    }

    /// Runs until simulated time `end_ns`.
    pub fn run_until(&mut self, end_ns: u64) {
        while let Some(t) = self.events.peek_time() {
            if t > end_ns {
                break;
            }
            let (t, ev) = self.events.pop().expect("peeked");
            self.now_ns = t;
            self.handle(ev);
            self.schedule_idle();
        }
        self.now_ns = end_ns;
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival => self.on_arrival(),
            Ev::CoreDone { core } => self.on_core_done(core),
            Ev::Epoch => self.on_epoch(),
            Ev::TxPacketDone => {
                if let Some(job) = self.tx_wire.finished_job() {
                    self.finalize(job.req, self.now_ns);
                }
                if let Some(dur) = self.tx_wire.next_packet_ns() {
                    self.events
                        .push(self.now_ns + dur.ceil() as u64, Ev::TxPacketDone);
                }
            }
            Ev::RxPacketDone => {
                if let Some(job) = self.rx_wire.finished_job() {
                    let q = job.queue % self.cfg.n_cores;
                    self.rx_inflight[q] = self.rx_inflight[q].saturating_sub(1);
                    if self.cfg.system.central_rx() {
                        self.central.push_back(job.req);
                    } else {
                        self.rx[job.queue].push_back(job.req);
                    }
                }
                if let Some(dur) = self.rx_wire.next_packet_ns() {
                    self.events
                        .push(self.now_ns + dur.ceil() as u64, Ev::RxPacketDone);
                }
            }
        }
    }

    fn kick_tx(&mut self) {
        if !self.tx_wire.busy {
            if let Some(dur) = self.tx_wire.next_packet_ns() {
                self.events
                    .push(self.now_ns + dur.ceil() as u64, Ev::TxPacketDone);
            }
        }
    }

    fn kick_rx(&mut self) {
        if !self.rx_wire.busy {
            if let Some(dur) = self.rx_wire.next_packet_ns() {
                self.events
                    .push(self.now_ns + dur.ceil() as u64, Ev::RxPacketDone);
            }
        }
    }

    fn on_arrival(&mut self) {
        let t = self.arrivals.next_arrival(&mut self.rng);
        // (The first event fires at time 0 with t == 0; subsequent
        // arrivals schedule themselves.)
        if let Some(schedule) = &self.schedule {
            self.gen.set_p_large(schedule.value_at(t));
        }
        let spec = self.gen.next_op(&mut self.rng);
        let measured = (self.measure_start_ns..self.measure_end_ns).contains(&t);
        if measured {
            self.generated += 1;
        }
        let req = Req {
            arrival_ns: t,
            size: spec.item_size,
            is_get: spec.op == Operation::Get,
            is_large_class: spec.is_large,
            measured,
        };
        let idx = self.alloc(req);

        // RX queue choice. The default is uniformly random (GETs are
        // explicitly random in the paper; PUT queues follow the keyhash,
        // which is uniform over the dataset's keys); the disciplines
        // replace it with their own placement rule. Under cFCFS the
        // queue only identifies the RX wire — the request lands in the
        // central queue once serialized.
        let n = self.cfg.n_cores;
        let queue = match self.cfg.system {
            System::Sho { handoff } | System::Discipline(DisciplineKind::Sho { handoff }) => {
                self.rng.index(handoff)
            }
            System::Discipline(DisciplineKind::Dfcfs) => Dfcfs::owner(spec.key, n),
            System::Discipline(DisciplineKind::Jsq) => (0..n)
                .min_by_key(|&q| {
                    self.rx[q].len()
                        + self.rx_inflight[q] as usize
                        + usize::from(self.busy[q].is_some())
                })
                .expect("n_cores > 0"),
            System::Discipline(DisciplineKind::RoundRobin) => {
                self.rr_arrival = (self.rr_arrival + 1) % n;
                self.rr_arrival
            }
            _ => self.rng.index(n),
        };

        // The request serializes on the RX wire, packet-interleaved
        // with other inbound traffic, before it is visible in an RX
        // queue (this is what makes large PUT uploads consume inbound
        // bandwidth without stalling unrelated small requests).
        let bytes = self.cfg.cost.request_wire_bytes(req.is_get, req.size);
        let pkts = self
            .cfg
            .cost
            .packets_for_inbound(self.cfg.cost.inbound_size(req.is_get, req.size));
        self.rx_inflight[queue % self.cfg.n_cores] += 1;
        self.rx_wire.submit(
            queue % self.cfg.n_cores,
            WireJob {
                req: idx,
                pkts_left: pkts,
                bytes_left: bytes,
                queue,
            },
        );
        self.kick_rx();
        self.events.push(self.arrivals.peek(), Ev::Arrival);
    }

    fn on_core_done(&mut self, core: usize) {
        let stage = self.busy[core].take().expect("core was busy");
        match stage {
            Stage::Full { req, stolen } => {
                if stolen {
                    self.steals += 1;
                }
                self.complete(core, req);
            }
            Stage::MinosDispatch { req, target } => {
                self.soft[target].push_back(req);
            }
            Stage::ShoDispatch { req } => {
                self.central.push_back(req);
            }
        }
    }

    fn on_epoch(&mut self) {
        let hist = self.epoch_hist.take();
        let decision = self.controller.epoch_update(&hist);
        self.plan = ShardingPlan::from_decision(
            self.controller.epochs(),
            self.cfg.n_cores,
            decision,
            self.controller.smoothed_buckets(),
            minos_core::cost::CostFn::Packets,
        );
        self.events.push(self.now_ns + self.cfg.epoch_ns, Ev::Epoch);
    }

    /// Assigns work to every idle core according to its role.
    fn schedule_idle(&mut self) {
        loop {
            let mut assigned = false;
            for core in 0..self.cfg.n_cores {
                if self.busy[core].is_some() {
                    continue;
                }
                if self.assign(core) {
                    assigned = true;
                }
            }
            if !assigned {
                break;
            }
        }
    }

    /// Tries to start work on idle `core`; returns whether it did.
    fn assign(&mut self, core: usize) -> bool {
        match self.cfg.system {
            System::Hkh | System::Discipline(DisciplineKind::Hkh) => {
                if let Some(req) = self.rx[core].pop_front() {
                    self.start_full(core, req, false);
                    return true;
                }
                false
            }
            System::HkhWs => {
                if let Some(req) = self.rx[core].pop_front() {
                    self.start_full(core, req, false);
                    return true;
                }
                // Steal one queued request from the longest victim queue.
                let victim = (0..self.cfg.n_cores)
                    .filter(|&v| v != core && !self.rx[v].is_empty())
                    .max_by_key(|&v| self.rx[v].len());
                if let Some(v) = victim {
                    let req = self.rx[v].pop_front().expect("non-empty");
                    self.start_full(core, req, true);
                    return true;
                }
                false
            }
            System::Sho { handoff } | System::Discipline(DisciplineKind::Sho { handoff }) => {
                if core < handoff {
                    if let Some(req) = self.rx[core].pop_front() {
                        let occ = self.cfg.cost.sho_dispatch_ns(self.cfg.cost.inbound_size(
                            self.reqs[req as usize].is_get,
                            self.reqs[req as usize].size,
                        ));
                        self.charge_rx_packets(core, req);
                        self.busy[core] = Some(Stage::ShoDispatch { req });
                        self.events
                            .push(self.now_ns + occ.ceil() as u64, Ev::CoreDone { core });
                        return true;
                    }
                    false
                } else {
                    if let Some(req) = self.central.pop_front() {
                        let r = self.reqs[req as usize];
                        let occ = self
                            .cfg
                            .cost
                            .sho_worker_ns(r.size, self.cfg.cost.inbound_size(r.is_get, r.size));
                        self.busy[core] = Some(Stage::Full { req, stolen: false });
                        self.events
                            .push(self.now_ns + occ.ceil() as u64, Ev::CoreDone { core });
                        return true;
                    }
                    false
                }
            }
            System::Minos | System::Discipline(DisciplineKind::SizeAware) => {
                self.assign_minos(core)
            }
            System::Discipline(DisciplineKind::Cfcfs) => {
                // Centralized FCFS: any idle core pulls the global queue.
                if let Some(req) = self.central.pop_front() {
                    self.start_full(core, req, false);
                    return true;
                }
                false
            }
            System::Discipline(_) => {
                // dfcfs/jsq/round-robin/random all serve their own RX
                // queue FIFO, run-to-completion; they differ only in the
                // queue an arrival joined.
                if let Some(req) = self.rx[core].pop_front() {
                    self.start_full(core, req, false);
                    return true;
                }
                false
            }
        }
    }

    fn assign_minos(&mut self, core: usize) -> bool {
        let alloc = self.plan.allocation;
        let is_small = alloc.is_small_core(core);
        let is_handoff = alloc.is_handoff_core(core);

        // Handoff cores live off their software queues first — the
        // standby core too ("if a large request arrives, it is sent to
        // this core, which then becomes a large core").
        if is_handoff {
            if let Some(req) = self.soft[core].pop_front() {
                self.start_full(core, req, false);
                return true;
            }
        }

        if is_small {
            // Own RX queue first, then the handoff cores' RX queues
            // (small cores drain those so large cores never touch RX).
            if let Some(req) = self.rx[core].pop_front() {
                self.minos_pickup(core, req);
                return true;
            }
            for q in alloc.handoff_cores() {
                if q == core {
                    continue;
                }
                if let Some(req) = self.rx[q].pop_front() {
                    self.minos_pickup(core, req);
                    return true;
                }
            }
            return false;
        }

        // Dedicated large core with an empty software queue.
        if self.cfg.allocation_policy == AllocationPolicy::LargeSteals {
            // §6.1 ablation: large cores steal small requests one at a
            // time from small cores' RX queues to use spare capacity.
            let victim = alloc
                .small_cores()
                .filter(|&v| !self.rx[v].is_empty())
                .max_by_key(|&v| self.rx[v].len());
            if let Some(v) = victim {
                let req = self.rx[v].pop_front().expect("non-empty");
                self.minos_pickup(core, req);
                return true;
            }
        }
        false
    }

    /// A small core picked `req` up from an RX queue: profile it,
    /// classify it, and either serve it or dispatch it.
    fn minos_pickup(&mut self, core: usize, req: u32) {
        let r = self.reqs[req as usize];
        self.epoch_hist.record(r.size);
        let profile = if matches!(self.cfg.threshold_mode, ThresholdMode::Dynamic) {
            self.cfg.cost.minos_profile_ns
        } else {
            0.0
        };
        match self.plan.classify(r.size) {
            Destination::Local => {
                self.charge_rx_packets(core, req);
                let occ = profile + self.cfg.cost.service_ns(r.size);
                self.busy[core] = Some(Stage::Full { req, stolen: false });
                self.events
                    .push(self.now_ns + occ.ceil() as u64, Ev::CoreDone { core });
            }
            Destination::Handoff(target) => {
                self.charge_rx_packets(core, req);
                let occ = profile + self.cfg.cost.handoff_ns;
                self.busy[core] = Some(Stage::MinosDispatch { req, target });
                self.events
                    .push(self.now_ns + occ.ceil() as u64, Ev::CoreDone { core });
            }
        }
    }

    fn start_full(&mut self, core: usize, req: u32, stolen: bool) {
        let r = self.reqs[req as usize];
        // For non-size-aware systems the pickup core is the serving
        // core (size-aware charges at `minos_pickup`).
        if !self.cfg.system.size_aware() {
            self.charge_rx_packets(core, req);
        }
        let mut occ = self.cfg.cost.service_ns(r.size);
        if stolen {
            occ += self.cfg.cost.steal_ns;
        }
        if self.cfg.system.size_aware()
            && matches!(self.cfg.threshold_mode, ThresholdMode::Dynamic)
            && self.plan.allocation.is_small_core(core)
        {
            // Standby-core small service still profiles.
            occ += self.cfg.cost.minos_profile_ns;
        }
        self.busy[core] = Some(Stage::Full { req, stolen });
        self.events
            .push(self.now_ns + occ.ceil() as u64, Ev::CoreDone { core });
    }

    fn charge_rx_packets(&mut self, core: usize, req: u32) {
        let r = self.reqs[req as usize];
        let inbound = self.cfg.cost.inbound_size(r.is_get, r.size);
        self.per_core[core].packets += self.cfg.cost.packets_for_inbound(inbound);
    }

    /// A core finished serving `req`: emit the reply onto the TX wire
    /// (subject to Figure 8's sampling) or finalize immediately.
    fn complete(&mut self, core: usize, req: u32) {
        let r = self.reqs[req as usize];
        self.per_core[core].ops += 1;

        let send_reply = self.cfg.reply_sampling >= 1.0 || self.rng.chance(self.cfg.reply_sampling);
        if send_reply {
            let bytes = self.cfg.cost.reply_wire_bytes(r.is_get, r.size);
            let pkts = if r.is_get {
                self.cfg.cost.packets(r.size)
            } else {
                1
            };
            self.per_core[core].packets += pkts;
            self.tx_wire.submit(
                core,
                WireJob {
                    req,
                    pkts_left: pkts,
                    bytes_left: bytes,
                    queue: core,
                },
            );
            self.kick_tx();
        } else {
            // Reply dropped at the server (Figure 8): the operation is
            // complete now; no latency is observable at a client.
            if (self.measure_start_ns..self.measure_end_ns).contains(&self.now_ns) {
                self.completed += 1;
            }
            self.release(req);
        }
    }

    /// The reply's last packet left the wire: the client-visible end of
    /// the request.
    fn finalize(&mut self, req: u32, finish_ns: u64) {
        let r = self.reqs[req as usize];
        if (self.measure_start_ns..self.measure_end_ns).contains(&finish_ns) {
            self.completed += 1;
        }
        if r.measured {
            let latency = finish_ns.saturating_sub(r.arrival_ns);
            self.hist.record_ns(latency);
            if r.is_large_class {
                self.hist_large.record_ns(latency);
            } else {
                self.hist_small.record_ns(latency);
            }
            if let Some(window) = r.arrival_ns.checked_div(self.window_ns) {
                let w = window as usize;
                while self.windows.len() <= w {
                    self.windows.push(WindowAccum {
                        hist: LatencyHistogram::new(),
                        n_large: 0,
                        completed: 0,
                    });
                }
                let acc = &mut self.windows[w];
                acc.hist.record_ns(latency);
                acc.completed += 1;
                acc.n_large =
                    self.plan.allocation.n_large + usize::from(self.plan.allocation.standby);
            }
        }
        self.release(req);
    }

    fn alloc(&mut self, r: Req) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.reqs[i as usize] = r;
                i
            }
            None => {
                self.reqs.push(r);
                (self.reqs.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, idx: u32) {
        self.free.push(idx);
    }

    /// The overall latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.hist
    }

    /// The small-request latency histogram — the tail the paper
    /// protects and the one the discipline shoot-out compares.
    pub fn latency_small(&self) -> &LatencyHistogram {
        &self.hist_small
    }

    /// The large-request latency histogram (Figure 4).
    pub fn latency_large(&self) -> &LatencyHistogram {
        &self.hist_large
    }

    /// Per-core load counters (Figure 9).
    pub fn per_core(&self) -> &[CoreLoad] {
        &self.per_core
    }

    /// Per-window accumulators (Figure 10).
    pub fn windows(&self) -> &[WindowAccum] {
        &self.windows
    }

    /// The Minos plan currently in force.
    pub fn plan(&self) -> &ShardingPlan {
        &self.plan
    }

    /// Successful steals (HKH+WS).
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// TX-wire utilization over `span_ns`.
    pub fn tx_utilization(&self, span_ns: f64) -> f64 {
        self.tx_wire.utilization(span_ns)
    }

    /// RX-wire utilization over `span_ns`.
    pub fn rx_utilization(&self, span_ns: f64) -> f64 {
        self.rx_wire.utilization(span_ns)
    }

    /// Total bytes transmitted (TX wire).
    pub fn tx_bytes(&self) -> u64 {
        self.tx_wire.bytes_total
    }
}

impl CostModel {
    /// Inbound packets of a request (1 for GETs and small PUTs, the
    /// fragment count for large PUTs).
    pub fn packets_for_inbound(&self, inbound_size: u64) -> u64 {
        if inbound_size == 0 {
            1
        } else {
            self.packets(inbound_size)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_workload::{AccessGenerator, Dataset};

    fn gen(p_large: f64) -> AccessGenerator {
        AccessGenerator::new(Dataset::paper_scaled(100, 500_000), p_large, 0.95, 0.99)
    }

    fn quick_sim(system: System, p_large: f64, rate_mops: f64) -> SystemSim {
        let mut cfg = SystemConfig::paper(system);
        cfg.epoch_ns = 20_000_000; // 20 ms: several epochs in a short run
        SystemSim::new(cfg, gen(p_large), rate_mops, None, 0, 9)
    }

    #[test]
    fn minos_standby_core_serves_both_classes() {
        // An all-small workload keeps Minos in standby mode; large
        // requests still complete through the standby core's queue.
        let mut sim = quick_sim(System::Minos, 0.0, 0.3);
        sim.set_measure_window(0, u64::MAX);
        sim.run_until(60_000_000);
        assert!(sim.plan().allocation.standby, "all-small => standby");
        assert!(sim.completed > 1_000, "completed {}", sim.completed);
    }

    #[test]
    fn minos_large_steals_policy_completes_work() {
        let mut cfg = SystemConfig::paper(System::Minos);
        cfg.epoch_ns = 20_000_000;
        cfg.allocation_policy = AllocationPolicy::LargeSteals;
        let mut sim = SystemSim::new(cfg, gen(0.01), 2.0, None, 0, 9);
        sim.set_measure_window(0, u64::MAX);
        sim.run_until(60_000_000);
        let done = sim.completed;
        assert!(done > 50_000, "completed {done}");
        // Large cores exist (1% large at high packet weight) and some
        // completed ops on them (steals or handoffs).
        assert!(!sim.plan().allocation.standby);
    }

    #[test]
    fn sho_handoff_cores_never_execute_requests() {
        let mut sim = quick_sim(System::Sho { handoff: 2 }, 0.00125, 1.0);
        sim.set_measure_window(0, u64::MAX);
        sim.run_until(60_000_000);
        assert!(sim.completed > 10_000);
        let per_core = sim.per_core();
        assert_eq!(per_core[0].ops + per_core[1].ops, 0, "dispatch-only");
        assert!(per_core[0].packets > 0, "but they handle packets");
        // Workers execute everything that completes; a request can still
        // be in flight (on the wire or queued) when the run ends.
        let worker_ops: u64 = per_core[2..].iter().map(|c| c.ops).sum();
        assert!(
            worker_ops >= sim.completed,
            "{worker_ops} < {}",
            sim.completed
        );
        assert!(
            worker_ops <= sim.generated,
            "{worker_ops} > {}",
            sim.generated
        );
    }

    #[test]
    fn static_threshold_minos_skips_profiling_but_still_shards() {
        let mut cfg = SystemConfig::paper(System::Minos);
        cfg.threshold_mode = ThresholdMode::Static(1_456);
        cfg.epoch_ns = 20_000_000;
        let mut sim = SystemSim::new(cfg, gen(0.00125), 1.0, None, 0, 9);
        sim.set_measure_window(0, u64::MAX);
        sim.run_until(60_000_000);
        assert!(sim.completed > 10_000);
        assert_eq!(sim.plan().decision.threshold, 1_456, "threshold pinned");
    }

    #[test]
    fn every_discipline_system_completes_work() {
        for kind in DisciplineKind::ALL {
            let mut sim = quick_sim(System::Discipline(kind), 0.00125, 1.0);
            sim.set_measure_window(0, u64::MAX);
            sim.run_until(60_000_000);
            assert!(
                sim.completed > 10_000,
                "{}: completed {}",
                kind.name(),
                sim.completed
            );
            assert_eq!(System::Discipline(kind).label(), kind.name());
        }
    }

    #[test]
    fn size_aware_discipline_is_exactly_minos() {
        // Same seed, same workload: the size-aware discipline system and
        // the Minos system are the same code path and must agree
        // request-for-request.
        let mut a = quick_sim(System::Minos, 0.00125, 1.0);
        let mut b = quick_sim(System::Discipline(DisciplineKind::SizeAware), 0.00125, 1.0);
        for sim in [&mut a, &mut b] {
            sim.set_measure_window(0, u64::MAX);
            sim.run_until(60_000_000);
        }
        assert_eq!(a.completed, b.completed);
        assert_eq!(
            a.latency().quantiles().map(|q| q.p99_us),
            b.latency().quantiles().map(|q| q.p99_us)
        );
        assert_eq!(a.plan().decision.threshold, b.plan().decision.threshold);
    }

    #[test]
    fn jsq_beats_random_p99_under_skewed_load() {
        // Skewed service times (heavy-tailed item sizes): random
        // placement keeps joining queues that already hold a large
        // request, JSQ routes around them. The e2e claim of the
        // discipline lab, deterministic under the fixed seed. The
        // operating point must sit below the saturation knee — past it
        // every size-blind discipline collapses to the same overloaded
        // tail and the comparison measures nothing.
        let p99 = |system: System| {
            let mut sim = quick_sim(system, 0.01, 1.0);
            sim.set_measure_window(5_000_000, u64::MAX);
            sim.run_until(80_000_000);
            // Small-class p99: with 1 % large requests the overall p99
            // sits exactly on the class boundary, where it measures the
            // size mix instead of the placement rule.
            sim.latency_small().quantiles().expect("completions").p99_us
        };
        let jsq = p99(System::Discipline(DisciplineKind::Jsq));
        let random = p99(System::Discipline(DisciplineKind::Random));
        assert!(
            jsq < random,
            "JSQ p99 {jsq} ns should beat Random p99 {random} ns"
        );
    }

    #[test]
    fn reply_sampling_zero_sends_nothing_on_the_wire() {
        let mut cfg = SystemConfig::paper(System::Hkh);
        cfg.reply_sampling = 0.0;
        let mut sim = SystemSim::new(cfg, gen(0.0), 0.5, None, 0, 9);
        sim.set_measure_window(0, u64::MAX);
        sim.run_until(40_000_000);
        assert!(sim.completed > 1_000, "ops complete server-side");
        assert_eq!(sim.tx_bytes(), 0, "no replies transmitted");
        assert!(sim.latency().quantiles().is_none(), "no client latencies");
    }
}
