//! One event-level model that runs the server's disciplines.
//!
//! The model owns only what the real server gets from hardware and
//! time: the packet wires, the per-request cost charges, the request
//! slab and the event loop. Where a request runs and what an idle core
//! polls come from the server's own [`Discipline`], built from
//! [`SystemConfig::discipline`], so the paper's systems (size-aware
//! sharding, HKH, HKH+WS, SHO) and the cFCFS/dFCFS queueing models are
//! placed by the rule the server runs, written once in `minos-core`:
//!
//! * **Arrival.** The client picks an RX queue uniformly (GETs are
//!   random in the paper; PUT queues follow the keyhash, uniform over
//!   the dataset's keys), whatever the discipline.
//! * **An idle core serves**, in order: its own software queue; the
//!   shared queue if [`Discipline::pulls_shared`]; the RX queues of
//!   [`Discipline::rx_drain`], own queue first; and, with
//!   [`SystemConfig::steal`], the server's steal order — the longest
//!   peer software queue, else (only when [`Discipline::own_rx_only`])
//!   a batch from the first peer RX queue holding requests.
//! * **Pickup** from RX charges the inbound packets, profiles the size
//!   when [`Discipline::needs_size`], and asks [`Discipline::place`]:
//!   `Local` pays the service time, `Core(t)` a handoff to `t`'s
//!   software queue, `Shared` a dispatch to the shared queue, whose
//!   puller pays the worker cost.
//!
//! The size-aware plan (threshold, allocation, ranges) is recomputed
//! every epoch by the **real** `minos-core` controller. Item sizes, key
//! skew and arrival times come from the real `minos-workload` generator
//! over the paper's 16 M-key dataset.

use crate::cost_model::CostModel;
use minos_core::config::{AllocationPolicy, ThresholdMode, BATCH};
use minos_core::dispatch::{Discipline, DisciplineKind, PlaceCtx, Placement, QueueDepths};
use minos_core::plan::ShardingPlan;
use minos_core::threshold::ThresholdController;
use minos_queue_sim::EventQueue;
use minos_stats::{LatencyHistogram, SizeHistogram};
use minos_workload::{AccessGenerator, OpenLoop, Operation, PhaseSchedule, Rng};
use std::collections::VecDeque;

/// Static configuration of the simulated server.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// The queue discipline the server runs (`SizeAware` is the paper's
    /// Minos; `Hkh` and `Sho` its baselines).
    pub discipline: DisciplineKind,
    /// Work stealing, as the server's [`minos_core::MinosConfig::steal`]: `hkh`
    /// with it is the paper's HKH+WS.
    pub steal: bool,
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
    /// The paper's server running `discipline`, without stealing.
    pub fn paper(discipline: DisciplineKind) -> Self {
        SystemConfig {
            discipline,
            steal: false,
            n_cores: 8,
            cost: CostModel::default(),
            nic_gbit: 40.0,
            epoch_ns: 1_000_000_000,
            reply_sampling: 1.0,
            threshold_mode: ThresholdMode::Dynamic,
            allocation_policy: AllocationPolicy::Standard,
        }
    }

    /// The label results carry: the discipline's CLI name, with the
    /// server's `--steal` spelling appended when stealing.
    pub fn label(&self) -> String {
        let name = self.discipline.name();
        if self.steal {
            format!("{name} --steal")
        } else {
            name.to_string()
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Req {
    arrival_ns: u64,
    key: u64,
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

    /// Queues `req`'s `pkts` packets (`bytes` in all) behind `queue`'s
    /// earlier jobs; returns the duration of the packet this starts if
    /// the wire was idle.
    fn submit(&mut self, queue: usize, req: u32, pkts: u64, bytes: u64) -> Option<f64> {
        self.queues[queue].push_back(WireJob {
            req,
            pkts_left: pkts,
            bytes_left: bytes,
        });
        if self.busy {
            None
        } else {
            self.next_packet_ns()
        }
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

    /// The packet in flight left the wire: returns the request it
    /// finished, if it was that request's last, with its queue; and the
    /// duration of the next packet (`None` leaves the wire idle).
    fn packet_done(&mut self) -> (Option<(usize, u32)>, Option<f64>) {
        let n = self.queues.len();
        let q = (self.rr + n - 1) % n; // `rr` already advanced past it
        let done = if self.queues[q].front().is_some_and(|j| j.pkts_left == 0) {
            self.queues[q].pop_front().map(|j| (q, j.req))
        } else {
            None
        };
        (done, self.next_packet_ns())
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
    discipline: Box<dyn Discipline>,
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
    shared: VecDeque<u32>,
    /// Requests in any of the queues above: an idle pass with none
    /// waiting has nothing to assign.
    waiting: usize,

    /// What each busy core is doing: the request, and where it goes
    /// when the core is done — `Local` is service, whose end sends the
    /// reply; `Core`/`Shared` is the hop to that queue.
    busy: Vec<Option<(u32, Placement)>>,

    // What the discipline says under the plan in force, cached per plan
    // as the server's poll loop caches it.
    /// The RX queues each core drains, own queue first (empty for a
    /// core that never reads RX).
    drain: Vec<Vec<usize>>,
    /// An idle stealing core may take a batch from a peer's RX queue.
    steal_rx: bool,
    /// Per-request profiling cost of a size-aware core (0 without it).
    profile_ns: f64,

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
    hist_large: LatencyHistogram,
    window_ns: u64,
    windows: Vec<WindowAccum>,
    /// Measured-request completions.
    pub completed: u64,
    /// Measured-request generations.
    pub generated: u64,
    per_core: Vec<CoreLoad>,
    steals: u64,
}

/// The software-queue lengths, as the server's depth gauges read them.
struct SoftDepths<'a>(&'a [VecDeque<u32>]);

impl QueueDepths for SoftDepths<'_> {
    fn depth(&self, core: usize) -> usize {
        self.0[core].len()
    }
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
        if let DisciplineKind::Sho { handoff } = cfg.discipline {
            assert!(handoff >= 1 && handoff < cfg.n_cores);
        }
        let mut rng = Rng::new(seed);
        let arrivals = OpenLoop::new(rate_mops * 1e6, 0);
        let controller =
            ThresholdController::new(cfg.threshold_mode, minos_core::cost::CostFn::Packets);
        let discipline = cfg.discipline.build();
        let mut events = EventQueue::new();
        events.push(0, Ev::Arrival);
        if discipline.needs_size() {
            events.push(cfg.epoch_ns, Ev::Epoch);
        }
        let profile_ns =
            if discipline.needs_size() && matches!(cfg.threshold_mode, ThresholdMode::Dynamic) {
                cfg.cost.minos_profile_ns
            } else {
                0.0
            };
        let n = cfg.n_cores;
        let _ = rng.next_u64(); // decouple seed streams a little
        let mut sim = SystemSim {
            discipline,
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
            shared: VecDeque::new(),
            waiting: 0,
            busy: vec![None; n],
            drain: Vec::new(),
            steal_rx: false,
            profile_ns,
            controller,
            plan: ShardingPlan::bootstrap(n),
            epoch_hist: SizeHistogram::new(),
            tx_wire: PacketWire::new(n, cfg.nic_gbit),
            rx_wire: PacketWire::new(n, cfg.nic_gbit),
            measure_start_ns: 0,
            measure_end_ns: u64::MAX,
            hist: LatencyHistogram::new(),
            hist_large: LatencyHistogram::new(),
            window_ns,
            windows: Vec::new(),
            completed: 0,
            generated: 0,
            per_core: vec![CoreLoad::default(); n],
            steals: 0,
            cfg,
        };
        sim.load_plan();
        sim
    }

    /// Re-reads what the discipline says under the plan in force.
    fn load_plan(&mut self) {
        let plan = &self.plan;
        self.drain = (0..self.cfg.n_cores)
            .map(|core| {
                self.discipline
                    .rx_drain(core, plan, BATCH)
                    .map_or_else(Vec::new, |s| {
                        std::iter::once(s.own.0)
                            .chain(s.others.iter().map(|&(q, _)| q))
                            .collect()
                    })
            })
            .collect();
        self.steal_rx = self.cfg.steal && self.discipline.own_rx_only(plan, BATCH);
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
                let (done, next) = self.tx_wire.packet_done();
                if let Some((_, req)) = done {
                    self.finalize(req, self.now_ns);
                }
                self.packet_started(next, Ev::TxPacketDone);
            }
            Ev::RxPacketDone => {
                let (done, next) = self.rx_wire.packet_done();
                if let Some((queue, req)) = done {
                    self.rx[queue].push_back(req);
                    self.waiting += 1;
                }
                self.packet_started(next, Ev::RxPacketDone);
            }
        }
    }

    /// Schedules `done` for the end of the packet a wire just started.
    fn packet_started(&mut self, dur: Option<f64>, done: Ev) {
        if let Some(dur) = dur {
            self.events.push(self.now_ns + dur.ceil() as u64, done);
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
            key: spec.key,
            size: spec.item_size,
            is_get: spec.op == Operation::Get,
            is_large_class: spec.is_large,
            measured,
        };
        let idx = self.alloc(req);
        let queue = self.rng.index(self.cfg.n_cores);

        // The request serializes on the RX wire, packet-interleaved
        // with other inbound traffic, before it is visible in an RX
        // queue (this is what makes large PUT uploads consume inbound
        // bandwidth without stalling unrelated small requests).
        let bytes = self.cfg.cost.request_wire_bytes(req.is_get, req.size);
        let pkts = self
            .cfg
            .cost
            .packets_for_inbound(self.cfg.cost.inbound_size(req.is_get, req.size));
        let started = self.rx_wire.submit(queue, idx, pkts, bytes);
        self.packet_started(started, Ev::RxPacketDone);
        self.events.push(self.arrivals.peek(), Ev::Arrival);
    }

    fn on_core_done(&mut self, core: usize) {
        match self.busy[core].take().expect("core was busy") {
            (req, Placement::Local) => self.complete(core, req),
            (req, Placement::Core(target)) => {
                self.soft[target].push_back(req);
                self.waiting += 1;
            }
            (req, Placement::Shared) => {
                self.shared.push_back(req);
                self.waiting += 1;
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
        self.load_plan();
        self.events.push(self.now_ns + self.cfg.epoch_ns, Ev::Epoch);
    }

    /// Offers work to every idle core, in core order, until a pass
    /// starts nothing or nothing is left waiting.
    fn schedule_idle(&mut self) {
        loop {
            let mut assigned = false;
            for core in 0..self.cfg.n_cores {
                if self.waiting == 0 {
                    return;
                }
                if self.busy[core].is_none() && self.assign(core) {
                    self.waiting -= 1;
                    assigned = true;
                }
            }
            if !assigned {
                return;
            }
        }
    }

    /// Starts idle `core` on one waiting request; returns whether it
    /// took one off a queue. The order is the server's phases with RX
    /// moved behind the queues: own software queue, shared queue, RX
    /// drain schedule, steal. The server's round (`Core::step`) reads RX
    /// first, then serves its software queue and the shared queue.
    fn assign(&mut self, core: usize) -> bool {
        if let Some(req) = self.soft[core].pop_front() {
            self.serve(core, req, 0.0);
            return true;
        }
        if self.discipline.pulls_shared(core) {
            if let Some(req) = self.shared.pop_front() {
                let r = self.reqs[req as usize];
                let occ = self
                    .cfg
                    .cost
                    .sho_worker_ns(r.size, self.cfg.cost.inbound_size(r.is_get, r.size));
                self.start(core, req, Placement::Local, occ);
                return true;
            }
        }
        let drained = self.drain[core].iter().find(|&&q| !self.rx[q].is_empty());
        if let Some(&q) = drained {
            let req = self.rx[q].pop_front().expect("non-empty");
            self.pickup(core, req, 0.0);
            return true;
        }
        if self.drain[core].is_empty()
            && self.cfg.allocation_policy == AllocationPolicy::LargeSteals
        {
            // §6.1 ablation: a core that never reads RX (a dedicated
            // large core) takes small requests one at a time from the
            // longest drained RX queue to use spare capacity.
            let victim = (0..self.cfg.n_cores)
                .filter(|&v| !self.drain[v].is_empty() && !self.rx[v].is_empty())
                .max_by_key(|&v| self.rx[v].len());
            if let Some(v) = victim {
                let req = self.rx[v].pop_front().expect("non-empty");
                self.pickup(core, req, 0.0);
                return true;
            }
        }
        self.cfg.steal && self.steal(core)
    }

    /// The server's steal attempt by an idle core: one request from the
    /// longest peer software queue (the first on ties); failing that,
    /// where the discipline allows it, a batch from the first peer RX
    /// queue in rotation, processed as this core's own arrivals.
    fn steal(&mut self, core: usize) -> bool {
        let mut victim = None;
        let mut longest = 0;
        for (i, q) in self.soft.iter().enumerate() {
            if i != core && q.len() > longest {
                longest = q.len();
                victim = Some(i);
            }
        }
        if let Some(v) = victim {
            let req = self.soft[v].pop_front().expect("non-empty");
            self.steals += 1;
            self.serve(core, req, self.cfg.cost.steal_ns);
            return true;
        }
        if !self.steal_rx {
            return false;
        }
        let n = self.cfg.n_cores;
        let Some(v) = (1..n)
            .map(|d| (core + d) % n)
            .find(|&v| !self.rx[v].is_empty())
        else {
            return false;
        };
        // `own_rx_only` means this core drains exactly its own RX queue,
        // which it just found empty: the burst lands there in order.
        for _ in 0..self.rx[v].len().min(BATCH) {
            let req = self.rx[v].pop_front().expect("non-empty");
            self.rx[core].push_back(req);
        }
        let req = self.rx[core].pop_front().expect("stole at least one");
        self.steals += 1;
        self.pickup(core, req, self.cfg.cost.steal_ns);
        true
    }

    /// `core` took `req` off an RX queue: charge its inbound packets,
    /// profile its size if the discipline places by size, and place it.
    /// `extra_ns` is a steal's surcharge.
    fn pickup(&mut self, core: usize, req: u32, extra_ns: f64) {
        self.charge_rx_packets(core, req);
        let r = self.reqs[req as usize];
        let mut occ = extra_ns;
        let size = self.discipline.needs_size().then(|| {
            self.epoch_hist.record(r.size);
            occ += self.profile_ns;
            r.size
        });
        let placement = self.discipline.place(&PlaceCtx {
            rx_core: core,
            n_cores: self.cfg.n_cores,
            key: r.key,
            size,
            plan: &self.plan,
            depths: &SoftDepths(&self.soft),
        });
        let cost = match placement {
            Placement::Local => self.cfg.cost.service_ns(r.size),
            Placement::Core(_) => self.cfg.cost.handoff_ns,
            Placement::Shared => self
                .cfg
                .cost
                .sho_dispatch_ns(self.cfg.cost.inbound_size(r.is_get, r.size)),
        };
        self.start(core, req, placement, occ + cost);
    }

    /// `core` serves `req` from a software queue. A core that drains RX
    /// under a size-aware discipline profiles everything it serves (the
    /// standby core's large handoffs too).
    fn serve(&mut self, core: usize, req: u32, extra_ns: f64) {
        let mut occ = self.cfg.cost.service_ns(self.reqs[req as usize].size) + extra_ns;
        if !self.drain[core].is_empty() {
            occ += self.profile_ns;
        }
        self.start(core, req, Placement::Local, occ);
    }

    fn start(&mut self, core: usize, req: u32, placement: Placement, occ_ns: f64) {
        self.busy[core] = Some((req, placement));
        self.events
            .push(self.now_ns + occ_ns.ceil() as u64, Ev::CoreDone { core });
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
            let started = self.tx_wire.submit(core, req, pkts, bytes);
            self.packet_started(started, Ev::TxPacketDone);
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

    fn quick_sim(kind: DisciplineKind, p_large: f64, rate_mops: f64) -> SystemSim {
        let mut cfg = SystemConfig::paper(kind);
        cfg.epoch_ns = 20_000_000; // 20 ms: several epochs in a short run
        SystemSim::new(cfg, gen(p_large), rate_mops, None, 0, 9)
    }

    #[test]
    fn minos_standby_core_serves_both_classes() {
        // An all-small workload keeps Minos in standby mode; large
        // requests still complete through the standby core's queue.
        let mut sim = quick_sim(DisciplineKind::SizeAware, 0.0, 0.3);
        sim.set_measure_window(0, u64::MAX);
        sim.run_until(60_000_000);
        assert!(sim.plan().allocation.standby, "all-small => standby");
        assert!(sim.completed > 1_000, "completed {}", sim.completed);
    }

    #[test]
    fn minos_large_steals_policy_completes_work() {
        let mut cfg = SystemConfig::paper(DisciplineKind::SizeAware);
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
        let mut sim = quick_sim(DisciplineKind::Sho { handoff: 2 }, 0.00125, 1.0);
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
        let mut cfg = SystemConfig::paper(DisciplineKind::SizeAware);
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
            let mut sim = quick_sim(kind, 0.00125, 1.0);
            sim.set_measure_window(0, u64::MAX);
            sim.run_until(60_000_000);
            assert!(
                sim.completed > 10_000,
                "{}: completed {}",
                kind.name(),
                sim.completed
            );
            assert_eq!(SystemConfig::paper(kind).label(), kind.name());
        }
    }

    #[test]
    fn reply_sampling_zero_sends_nothing_on_the_wire() {
        let mut cfg = SystemConfig::paper(DisciplineKind::Hkh);
        cfg.reply_sampling = 0.0;
        let mut sim = SystemSim::new(cfg, gen(0.0), 0.5, None, 0, 9);
        sim.set_measure_window(0, u64::MAX);
        sim.run_until(40_000_000);
        assert!(sim.completed > 1_000, "ops complete server-side");
        assert_eq!(sim.tx_bytes(), 0, "no replies transmitted");
        assert!(sim.latency().quantiles().is_none(), "no client latencies");
    }
}
