//! The one open-loop client run behind `minos-loadgen` and
//! `minos-figures`, following the paper's methodology (§5.4): each
//! client thread injects requests open-loop with exponential
//! inter-arrival gaps, latency is measured from each request's
//! *scheduled* arrival (the coordinated-omission fix), and a run counts
//! only if it lost nothing ("we only report performance values
//! corresponding to scenarios in which the packet loss rate is equal
//! to 0").
//!
//! * [`RunConfig`] is the run's shape, and [`RunConfig::client`] the one
//!   client builder.
//! * [`Workload`] is the request source: the paper's ETC access pattern
//!   or the churn working set.
//! * [`Schedule`] is one client's seeded Poisson schedule: the same seed
//!   and client index give the same `(op, deadline)` sequence.
//! * [`run`] drives the measured clients behind one start barrier and
//!   drains them; [`RunReport::merge`] folds their reports and checks
//!   the accounting identity.
//! * [`RunSummary`] is the one schema of a run's verdict, shared by
//!   `minos-loadgen --json` and every sweep point.
//! * [`preload()`] PUTs a dataset through a clean client before the run.

pub mod preload;
mod report;

pub use preload::{preload, PreloadStalled};
pub use report::{quantiles_json, ClientRun, JsonObj, RunReport, RunSummary, NO_FAULTS};

use minos_core::client::{Client, HedgePolicy, RetryPolicy};
use minos_net::{
    endpoint_for, FaultProfile, FaultTransport, Transport, UdpConfig, UdpTransport, BATCH,
};
use minos_workload::{
    AccessGenerator, ChurnGenerator, Dataset, OpSpec, OpenLoop, Operation, Profile, Rng,
};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// RX pool slots per client. One poll can drain up to 4096 replies
/// whose payloads are all alive at once; a pool past that keeps the
/// steady-state client RX path off the allocator.
const CLIENT_POOL_SLOTS: usize = 8192;

/// The shape of one open-loop run and of every client it builds.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The server's queue-0 address; queue `q` listens on `port + q`.
    pub target: SocketAddrV4,
    /// Server RX queues.
    pub queues: u16,
    /// Measured client threads, each with its own socket and schedule
    /// at `rate / clients`.
    pub clients: u16,
    /// Aggregate offered rate, requests/second.
    pub rate: f64,
    /// Measured window.
    pub duration: Duration,
    /// How long each client may wait for in-flight replies after the
    /// window closes.
    pub drain_timeout: Duration,
    /// Seed of every schedule and of each client's queue choices.
    pub seed: u64,
    /// Retransmission policy of every client, the preloader included.
    /// `None` is the paper's strict zero-loss mode.
    pub retry: Option<RetryPolicy>,
    /// Hedged requests on the measured clients.
    pub hedge: Option<HedgePolicy>,
    /// Fault injection on the measured clients' transports; the
    /// preloader stays clean.
    pub fault: Option<FaultProfile>,
    /// Client socket buffer size, bytes.
    pub socket_buffer_bytes: usize,
    /// Pin measured client `c` to CPU `pin_base + c` (best effort).
    pub pin_base: Option<usize>,
}

impl RunConfig {
    /// One client at 20 000 requests/s for 10 s against `target`, in
    /// zero-loss mode, with the UDP client's default socket buffer.
    pub fn new(target: SocketAddrV4, queues: u16) -> Self {
        let udp = UdpConfig::client(Ipv4Addr::UNSPECIFIED);
        RunConfig {
            target,
            queues,
            clients: 1,
            rate: 20_000.0,
            duration: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(10),
            seed: 42,
            retry: None,
            hedge: None,
            fault: None,
            socket_buffer_bytes: udp.socket_buffer_bytes,
            pin_base: None,
        }
    }

    /// Builds client `id` on a fresh ephemeral-port UDP socket. Every
    /// client gets the retry policy; a `measured` one also gets the
    /// fault layer and hedging.
    pub fn client(&self, id: u16, measured: bool) -> std::io::Result<DriverClient> {
        let udp = Arc::new(UdpTransport::bind_client_with(UdpConfig {
            socket_buffer_bytes: self.socket_buffer_bytes,
            pool_slots: CLIENT_POOL_SLOTS,
            ..UdpConfig::client(Ipv4Addr::UNSPECIFIED)
        })?);
        let fault = self
            .fault
            .filter(|_| measured)
            .map(|profile| Arc::new(FaultTransport::new(Arc::clone(&udp), profile)));
        let transport: Arc<dyn Transport> = match &fault {
            Some(f) => Arc::clone(f) as Arc<dyn Transport>,
            None => Arc::clone(&udp) as Arc<dyn Transport>,
        };
        let mut client = Client::with_transport(
            transport,
            udp.local_endpoint(0),
            endpoint_for(*self.target.ip(), self.target.port()),
            self.queues,
            id,
            self.seed ^ u64::from(id),
        );
        if let Some(policy) = self.retry {
            client = client.with_retry(policy);
        }
        if let Some(policy) = self.hedge.filter(|_| measured) {
            client = client.with_hedging(policy);
        }
        Ok(DriverClient { client, udp, fault })
    }

    /// The preloader: a clean client whose id (`99 + clients`) no
    /// measured client (`1..=clients`) shares.
    pub fn preloader(&self) -> std::io::Result<DriverClient> {
        self.client(self.clients.saturating_add(99), false)
    }
}

/// A built client and the typed layers under it, kept for their
/// counters.
pub struct DriverClient {
    /// The client.
    pub client: Client,
    /// Its UDP socket (`io_stats`, `stats`).
    pub udp: Arc<UdpTransport>,
    /// Its fault layer, on a measured client of a faulty run.
    pub fault: Option<Arc<FaultTransport<UdpTransport>>>,
}

/// The request source every client of a run samples.
#[derive(Clone, Debug)]
pub enum Workload {
    /// The paper's ETC access pattern over a dataset the run preloads.
    Etc(AccessGenerator),
    /// A working set meant to outgrow the server's mempool; it is built
    /// live, so there is nothing to preload.
    Churn(ChurnGenerator),
}

impl Workload {
    /// The ETC workload: `keys` keys, `large_keys` of them large and 40 %
    /// of the rest tiny (the paper's split), sampled with `profile`'s
    /// mix and skew.
    pub fn etc(keys: u64, large_keys: u64, profile: Profile, seed: u64) -> Self {
        let dataset = Dataset::new(keys, large_keys, 0.4, profile.large_max, seed);
        Workload::Etc(AccessGenerator::new(
            dataset,
            profile.p_large,
            profile.get_ratio,
            profile.zipf_s,
        ))
    }

    /// The dataset to preload; `None` for churn.
    pub fn dataset(&self) -> Option<&Dataset> {
        match self {
            Workload::Etc(g) => Some(g.dataset()),
            Workload::Churn(_) => None,
        }
    }

    /// Samples one request.
    pub fn next_op(&self, rng: &mut Rng) -> OpSpec {
        match self {
            Workload::Etc(g) => g.next_op(rng),
            Workload::Churn(g) => g.next_op(rng),
        }
    }
}

/// One client's open-loop schedule: Poisson arrivals at `rate` from
/// `start_ns`, each paired with a request sampled from the workload.
/// The arrival and request RNGs derive from `(seed, client)` alone, so
/// a seed replays the same `(op, deadline)` sequence whatever the
/// timing of the loop consuming it.
pub struct Schedule<'w> {
    workload: &'w Workload,
    arrivals: OpenLoop,
    arrival_rng: Rng,
    op_rng: Rng,
}

impl<'w> Schedule<'w> {
    /// The schedule of client `client` (0-based) at `rate` requests/s.
    pub fn new(workload: &'w Workload, seed: u64, client: u16, rate: f64, start_ns: u64) -> Self {
        let c = u64::from(client);
        Schedule {
            workload,
            arrivals: OpenLoop::new(rate, start_ns),
            arrival_rng: Rng::new(seed ^ 0x9e37_79b9 ^ (c << 17)),
            op_rng: Rng::new(
                (seed ^ (c + 1).wrapping_mul(0x5851_f42d_4c95_7f2d))
                    .wrapping_mul(0x2545_f491_4f6c_dd1d),
            ),
        }
    }

    /// The deadline of the next request.
    pub fn peek(&self) -> u64 {
        self.arrivals.peek()
    }
}

impl Iterator for Schedule<'_> {
    type Item = (OpSpec, u64);

    fn next(&mut self) -> Option<(OpSpec, u64)> {
        let deadline = self.arrivals.next_arrival(&mut self.arrival_rng);
        Some((self.workload.next_op(&mut self.op_rng), deadline))
    }
}

/// Runs `cfg.clients` measured clients (ids `1..=clients`) against
/// `workload` for `cfg.duration`, then drains them and merges their
/// reports. Every socket is bound before any schedule starts, and the
/// threads release their schedules together, so the offered rate is the
/// configured one from the first request.
pub fn run(cfg: &RunConfig, workload: &Workload) -> std::io::Result<RunReport> {
    let clients = (0..cfg.clients)
        .map(|c| cfg.client(1 + c, true))
        .collect::<std::io::Result<Vec<_>>>()?;
    let start = Barrier::new(clients.len());
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .zip(clients)
            .map(|(index, client)| {
                let start = &start;
                scope.spawn(move || run_client(cfg, workload, index, client, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a driver client thread panicked"))
            .collect()
    });
    Ok(RunReport::merge(runs))
}

/// One measured client thread: open-loop injection for the window, a
/// drain, and its report.
fn run_client(
    cfg: &RunConfig,
    workload: &Workload,
    index: u16,
    DriverClient {
        mut client,
        udp,
        fault,
    }: DriverClient,
    start: &Barrier,
) -> ClientRun {
    if let Some(base) = cfg.pin_base {
        let cpu = base + usize::from(index);
        if let Err(e) = minos_net::affinity::pin_current_thread(cpu) {
            eprintln!("driver: client {index}: pinning to cpu {cpu} failed: {e}");
        }
    }
    let mut due: Vec<(OpSpec, u64)> = Vec::with_capacity(BATCH);
    let mut run = ClientRun::default();
    start.wait();
    // The schedule runs on the client's clock, so each deadline can ride
    // along to `send_batch_at`: latency is measured from it, not from
    // whenever this loop got around to the send.
    let rate = cfg.rate / f64::from(cfg.clients);
    let mut schedule = Schedule::new(workload, cfg.seed, index, rate, client.now_ns());
    let started = Instant::now();
    while started.elapsed() < cfg.duration {
        let now = client.now_ns();
        // Every arrival whose time has come leaves in one burst; BATCH
        // keeps a burst inside one sendmmsg, and whatever is still due
        // leaves on the next iteration with its own deadline.
        due.clear();
        while now >= schedule.peek() && due.len() < BATCH {
            let (spec, deadline) = schedule.next().expect("the schedule never ends");
            run.behind_max_ns = run.behind_max_ns.max(now - deadline);
            if spec.op == Operation::Put {
                run.puts_sent += 1;
                run.put_value_bytes += spec.item_size;
            }
            due.push((spec, deadline));
        }
        if !due.is_empty() {
            client.send_batch_at(&due);
            run.scheduled += due.len() as u64;
            run.flushes += 1;
            run.coalesced_max = run.coalesced_max.max(due.len() as u64);
        }
        client.poll();
    }
    run.elapsed = started.elapsed();
    run.drained = client.drain(cfg.drain_timeout);
    if let Some(f) = &fault {
        // Keep polling past the reorder hold so the injector's held
        // packets (late duplicates and stragglers) flush and their RX
        // pool slots return: the pool gauge must tell a leak from a
        // hold that is still armed.
        let grace = Duration::from_micros(f.profile().reorder_hold_us * 2 + 5_000);
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            client.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
        run.fault = f.fault_stats();
    }
    run.totals = client.totals();
    run.pending_len = client.pending_len();
    run.latency = client.latency().clone();
    run.latency_small = client.latency_small().clone();
    run.latency_large = client.latency_large().clone();
    run.service_latency = client.service_latency().clone();
    run.reassembly_evictions = client.reassembly_evictions();
    run.reply_copied_bytes = client.reply_copied_bytes();
    run.io = udp.io_stats();
    run.tx_dropped = udp.stats().tx_dropped;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_workload::profiles::{DEFAULT_PROFILE, WRITE_INTENSIVE_PROFILE};
    use minos_workload::ChurnConfig;

    /// FNV-1a over the first `n` `(op, deadline)` pairs.
    fn digest(schedule: Schedule<'_>, n: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (spec, deadline) in schedule.take(n) {
            let fields = [
                spec.op as u64,
                spec.key,
                spec.item_size,
                u64::from(spec.is_large),
                spec.ttl_ms,
                deadline,
            ];
            for b in fields.iter().flat_map(|v| v.to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    // The golden digests were captured from the loop `minos-loadgen`
    // ran before this crate existed (same generator construction, same
    // RNG seeding, a fixed start): a change here changes what every
    // committed run measured.
    #[test]
    fn etc_schedule_matches_the_golden_list() {
        let workload = Workload::etc(2_000, 8, DEFAULT_PROFILE, 42);
        let schedule = Schedule::new(&workload, 42, 0, 10_000.0, 0);
        assert_eq!(schedule.peek(), 0, "the first request is due at the start");
        assert_eq!(digest(schedule, 10_000), 0xb3dc_6727_bb0b_dafc);
    }

    #[test]
    fn churn_schedule_matches_the_golden_list() {
        let workload = Workload::Churn(ChurnGenerator::new(ChurnConfig {
            num_keys: 4_000,
            value_min: 64,
            value_max: 4_096,
            zipf_s: WRITE_INTENSIVE_PROFILE.zipf_s,
            get_ratio: WRITE_INTENSIVE_PROFILE.get_ratio,
            ttl_ms: 2_000,
            salt: 7,
        }));
        assert!(workload.dataset().is_none(), "churn preloads nothing");
        let schedule = Schedule::new(&workload, 7, 1, 3_000.0, 1_000_000);
        assert_eq!(digest(schedule, 10_000), 0x10ad_4a34_5a74_6009);
    }
}
