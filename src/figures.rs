//! Rate sweeps over real UDP: the machinery behind `minos-figures`.
//!
//! Reproduces the paper's evaluation shape (§5.3–5.4): the same
//! open-loop workload is offered to size-aware sharding and to the
//! size-unaware baselines (HKH, SHO) — each a queue discipline of the
//! one Minos server, so every design runs on the same store and network
//! stack (§5.2) — at a ladder of rates climbing up to and past the
//! saturation knee, and every `(discipline, rate)` point reports
//! throughput, loss, and the latency tail — p50/p99/p99.9/p99.99 —
//! measured from each request's *scheduled* arrival, so a sweep point
//! past the knee honestly shows the queueing delay the overload causes
//! instead of coordinated-omission-filtered service times.
//!
//! Everything runs in one process over real SO_REUSEPORT UDP sockets:
//! the server under test binds one socket per core at
//! `base_port + queue`, and each point is one open-loop run of
//! [`crate::driver`] against it. One [`SweepPoint`] is emitted per
//! (discipline, eviction, rate), rendered from the run's merged
//! [`RunReport`], serialized as JSON by [`SweepPoint::to_json`] and
//! parseable back by [`SweepPoint::parse`] — the committed
//! `BENCH_fig_*.json` files and the CI perf-smoke gates both speak this
//! schema.

use crate::core::client::{HedgePolicy, RetryPolicy};
use crate::core::dispatch::DisciplineKind;
use crate::core::server::{MinosServer, ServerConfig};
use crate::core::MinosConfig;
use crate::driver::{RunConfig, RunReport, Workload};
use crate::kv::{CapacityConfig, EvictionPolicy};
use crate::net::{FaultProfile, Transport, UdpConfig, UdpTransport};
use crate::obs::JsonValue;
use crate::report::{quantiles_json, JsonObj};
use crate::stats::Quantiles;
use crate::workload::{ChurnConfig, ChurnGenerator, Dataset, Profile, DEFAULT_PROFILE};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::Duration;

/// The engine label of every point this module writes
/// (`SweepPoint.policy`): there is one engine, and what a point varies
/// is its discipline. Files written before the baselines became
/// disciplines also hold `hkh` and `sho` points.
pub const POLICY: &str = "minos";

/// One sweep's shape: which disciplines, which rates, and the fixed
/// workload/topology every point shares.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Offered rates in requests/second, swept in order per discipline.
    /// Ascending order is conventional (the knee reads left to right)
    /// but not required.
    pub rates: Vec<f64>,
    /// Queue disciplines to sweep — each runs its own server instance
    /// over its own ports.
    pub disciplines: Vec<DisciplineKind>,
    /// Server cores = UDP RX queues per server.
    pub cores: usize,
    /// Dispatch cores of every `sho` instance
    /// ([`DisciplineKind::Sho`]'s `handoff`).
    pub sho_handoff: usize,
    /// Client threads; each runs an independent open loop at
    /// `rate / clients` on its own socket.
    pub clients: u16,
    /// Measured duration of each point.
    pub duration: Duration,
    /// Dataset size in keys.
    pub keys: u64,
    /// Number of large keys in the dataset.
    pub large_keys: u64,
    /// Workload mix (GET ratio, `p_large`, sizes, skew).
    pub profile: Profile,
    /// RNG seed; every point reuses the same schedule seeds so
    /// disciplines see identical workloads.
    pub seed: u64,
    /// Queue-0 UDP port of the first server instance; instance `i` of
    /// the `(discipline × eviction)` enumeration binds `cores` ports
    /// from `base_port + i * cores`.
    pub base_port: u16,
    /// How long each point may wait for in-flight replies after its
    /// measured window closes.
    pub drain_timeout: Duration,
    /// Churn mode: when set, the sweep offers the churn workload (a
    /// working set outgrowing `mempool_bytes`) to one instance per
    /// (discipline, eviction policy) instead of the paper profile.
    pub churn: Option<ChurnSweepSpec>,
    /// Chaos mode: a [`FaultProfile`] grammar string (see
    /// [`FaultProfile::parse`]). When set, every *measured* client's
    /// transport is wrapped in a deterministic fault injector (the
    /// preload stays clean) and the spec is recorded in each point —
    /// pair it with [`SweepConfig::retry`] so injected drops surface as
    /// retries and bounded `timed_out` loss instead of voiding every
    /// point's zero-loss verdict.
    pub fault_profile: Option<String>,
    /// Hedged requests on measured clients: a small request unanswered
    /// past the adaptive hedge delay is duplicated to another RX queue,
    /// first reply wins. The dial the hedging figure flips.
    pub hedge: bool,
    /// Client-side retry policy of every client, the preloader included
    /// (typically set together with `fault_profile`).
    pub retry: Option<RetryPolicy>,
}

/// The churn-sweep dials: how tight the mempool is and which eviction
/// policies compete over it.
#[derive(Clone, Debug)]
pub struct ChurnSweepSpec {
    /// Server mempool budget in bytes — sized *below* the churn working
    /// set, or there is nothing to evict.
    pub mempool_bytes: usize,
    /// Eviction policies to sweep; each gets its own server instance.
    pub evictions: Vec<EvictionPolicy>,
    /// Smallest churn value in bytes.
    pub value_min: u64,
    /// Largest churn value in bytes (inclusive; keep below the
    /// admission cutoff for a reject-free run).
    pub value_max: u64,
    /// TTL stamped on every churn PUT (0 = never expires).
    pub ttl_ms: u64,
}

impl SweepConfig {
    /// A small loopback sweep: 2 cores, 1 client, the default profile,
    /// size-aware sharding against both baselines. Callers override
    /// `rates` (and anything else) to taste.
    pub fn loopback(base_port: u16, rates: Vec<f64>) -> Self {
        SweepConfig {
            rates,
            disciplines: vec![
                DisciplineKind::SizeAware,
                DisciplineKind::Hkh,
                DisciplineKind::Sho { handoff: 1 },
            ],
            cores: 2,
            sho_handoff: 1,
            clients: 1,
            duration: Duration::from_secs(2),
            keys: 2_000,
            large_keys: 8,
            profile: DEFAULT_PROFILE,
            seed: 42,
            base_port,
            drain_timeout: Duration::from_secs(5),
            churn: None,
            fault_profile: None,
            hedge: false,
            retry: None,
        }
    }

    fn validate(&self) {
        assert!(!self.rates.is_empty(), "at least one rate");
        assert!(!self.disciplines.is_empty(), "at least one discipline");
        if let Some(churn) = &self.churn {
            assert!(!churn.evictions.is_empty(), "at least one eviction policy");
            assert!(churn.value_min > 0 && churn.value_min <= churn.value_max);
        }
        assert!(self.cores >= 1, "at least one core");
        assert!(self.clients >= 1, "at least one client");
        for (discipline, _) in self.instances() {
            let config = MinosConfig {
                n_cores: self.cores,
                discipline,
                ..MinosConfig::default()
            };
            if let Err(e) = config.validate() {
                panic!("{}: {e}", discipline.name());
            }
        }
        assert!(
            self.rates.iter().all(|r| *r > 0.0),
            "rates must be positive"
        );
        let ports = self.instances().len() * self.cores;
        assert!(
            usize::from(self.base_port) + ports <= usize::from(u16::MAX),
            "port range {}+{} exceeds the u16 port space",
            self.base_port,
            ports
        );
    }

    /// The open-loop run of every point, before its target port and
    /// rate are set.
    fn run_config(&self) -> RunConfig {
        let fault = self.fault_profile.as_deref().map(|spec| {
            FaultProfile::parse(spec).unwrap_or_else(|e| panic!("fault_profile {spec:?}: {e}"))
        });
        RunConfig {
            clients: self.clients,
            duration: self.duration,
            drain_timeout: self.drain_timeout,
            seed: self.seed,
            retry: self.retry,
            hedge: self.hedge.then(HedgePolicy::default),
            fault,
            ..RunConfig::new(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0), self.cores as u16)
        }
    }

    /// The request source every point offers.
    fn workload(&self) -> Workload {
        match &self.churn {
            Some(churn) => Workload::Churn(ChurnGenerator::new(ChurnConfig {
                num_keys: self.keys,
                value_min: churn.value_min,
                value_max: churn.value_max,
                zipf_s: self.profile.zipf_s,
                get_ratio: self.profile.get_ratio,
                ttl_ms: churn.ttl_ms,
                salt: self.seed,
            })),
            None => Workload::etc(self.keys, self.large_keys, self.profile, self.seed),
        }
    }

    /// The server instances this sweep runs, in port order: every
    /// configured discipline (`sho` with [`SweepConfig::sho_handoff`]
    /// dispatch cores), crossed with every eviction policy in churn
    /// mode.
    fn instances(&self) -> Vec<(DisciplineKind, EvictionPolicy)> {
        let evictions: &[EvictionPolicy] = match &self.churn {
            Some(c) => &c.evictions,
            None => &[EvictionPolicy::None],
        };
        self.disciplines
            .iter()
            .map(|&d| match d {
                DisciplineKind::Sho { .. } => DisciplineKind::Sho {
                    handoff: self.sho_handoff,
                },
                d => d,
            })
            .flat_map(|d| evictions.iter().map(move |&ev| (d, ev)))
            .collect()
    }
}

/// The discipline label of the `hkh`/`sho` points written before the
/// baselines became disciplines of this engine, and the parse default
/// for pre-discipline sweep files.
pub const BUILTIN_DISCIPLINE: &str = "builtin";

/// The eviction label of a classic (non-churn) sweep point, and the
/// parse default for pre-capacity sweep files.
pub const NO_EVICTION: &str = "none";

/// The fault-profile label of a clean-transport sweep point, and the
/// parse default for pre-chaos sweep files.
pub const NO_FAULTS: &str = "none";

/// The `(policy, discipline, rate)` identity of a sweep point —
/// `--resume` skips a point when an already-written point has the same
/// key. The rate is compared at the writer's one-decimal precision.
pub fn point_key(policy: &str, discipline: &str, offered_rate: f64) -> String {
    point_key_chaos(
        policy,
        discipline,
        NO_EVICTION,
        NO_FAULTS,
        false,
        offered_rate,
    )
}

/// [`point_key`] with the eviction and chaos dimensions: churn-sweep
/// points append `+{eviction}` (so `clock` and `size-aware-clock` runs
/// stay distinct), fault-injected points `+fault:{spec}` and hedged
/// points `+hedge`. Classic, clean, unhedged points keep their
/// historical key unchanged.
pub fn point_key_chaos(
    policy: &str,
    discipline: &str,
    eviction: &str,
    fault_profile: &str,
    hedging: bool,
    offered_rate: f64,
) -> String {
    let mut tags = String::new();
    if eviction != NO_EVICTION {
        tags.push_str(&format!("+{eviction}"));
    }
    if fault_profile != NO_FAULTS {
        tags.push_str(&format!("+fault:{fault_profile}"));
    }
    if hedging {
        tags.push_str("+hedge");
    }
    format!("{policy}/{discipline}{tags}@{offered_rate:.1}")
}

/// One measured `(discipline, offered rate)` point — the JSON record
/// schema of the committed `BENCH_fig_*.json` files.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Engine name ([`POLICY`]; older files also hold `hkh` and `sho`).
    pub policy: String,
    /// Queue discipline name ([`DisciplineKind::name`];
    /// [`BUILTIN_DISCIPLINE`] in older files' `hkh`/`sho` points).
    pub discipline: String,
    /// Eviction policy name ([`EvictionPolicy::name`]) for churn-sweep
    /// points; [`NO_EVICTION`] for classic rate-sweep points.
    pub eviction: String,
    /// Offered rate, requests/second (aggregate across clients).
    pub offered_rate: f64,
    /// Measured window, seconds.
    pub duration_s: f64,
    /// Client threads.
    pub clients: u64,
    /// Server cores.
    pub cores: u64,
    /// Requests sent in the window.
    pub sent: u64,
    /// Replies received (including drain).
    pub completed: u64,
    /// Requests never answered — packet loss.
    pub outstanding: u64,
    /// Requests abandoned after exhausting their retry budget —
    /// explicit loss under fault injection (0 on clean sweeps).
    pub timed_out: u64,
    /// Error replies (NotFound, OutOfMemory, ...).
    pub errors: u64,
    /// The fault-profile grammar string this point ran under
    /// ([`NO_FAULTS`] for a clean transport).
    pub fault_profile: String,
    /// Whether hedged requests were armed on the measured clients.
    pub hedging: bool,
    /// Hedge copies transmitted.
    pub hedges_sent: u64,
    /// Completions where the hedge copy's reply arrived first.
    pub hedge_wins: u64,
    /// Client accounting-identity violations (schedule count vs client
    /// transmit count, derived outstanding vs pending-table size).
    /// Anything nonzero voids the point.
    pub accounting_warnings: u64,
    /// Completions per second of measured window.
    pub achieved_rate: f64,
    /// `outstanding / sent` (0 when nothing was sent).
    pub loss_rate: f64,
    /// The paper's §5.4 verdict: every request completed.
    pub zero_loss: bool,
    /// Worst scheduling lag any client saw, µs (how far the injector
    /// itself fell behind its open-loop schedule).
    pub behind_max_us: f64,
    /// End-to-end latency from *scheduled arrival* (the
    /// coordinated-omission-safe measurement; None when nothing
    /// completed).
    pub latency_us: Option<Quantiles>,
    /// Schedule-based latency of small requests only — the tail the
    /// paper protects and the discipline shoot-out's verdict metric.
    pub latency_small_us: Option<Quantiles>,
    /// Latency from first transmission — service time without
    /// injection lag, for comparison against `latency_us`.
    pub service_latency_us: Option<Quantiles>,
    /// Schedule-based latency of large requests only.
    pub latency_large_us: Option<Quantiles>,
    /// Value bytes copied on the send path, client + server transports
    /// (0 = scatter-gather end to end, the asserted invariant).
    pub tx_copied_bytes: u64,
    /// Value bytes copied while clients reassembled multi-fragment
    /// replies (exactly once per received large value byte).
    pub reply_copied_bytes: u64,
}

impl SweepPoint {
    /// Serializes the point as one JSON object (one line of a
    /// `BENCH_fig_*.json` sweep).
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("policy", &self.policy)
            .str("discipline", &self.discipline)
            .str("eviction", &self.eviction)
            .f64("offered_rate", self.offered_rate, 1)
            .f64("duration_s", self.duration_s, 3)
            .u64("clients", self.clients)
            .u64("cores", self.cores)
            .u64("sent", self.sent)
            .u64("completed", self.completed)
            .u64("outstanding", self.outstanding)
            .u64("timed_out", self.timed_out)
            .u64("errors", self.errors)
            .str("fault_profile", &self.fault_profile)
            .bool("hedging", self.hedging)
            .u64("hedges_sent", self.hedges_sent)
            .u64("hedge_wins", self.hedge_wins)
            .u64("accounting_warnings", self.accounting_warnings)
            .f64("achieved_rate", self.achieved_rate, 1)
            .f64("loss_rate", self.loss_rate, 6)
            .bool("zero_loss", self.zero_loss)
            .f64("behind_max_us", self.behind_max_us, 1)
            .raw("latency_us", &quantiles_json(self.latency_us))
            .raw("latency_small_us", &quantiles_json(self.latency_small_us))
            .raw(
                "service_latency_us",
                &quantiles_json(self.service_latency_us),
            )
            .raw("latency_large_us", &quantiles_json(self.latency_large_us))
            .u64("tx_copied_bytes", self.tx_copied_bytes)
            .u64("reply_copied_bytes", self.reply_copied_bytes)
            .finish()
    }

    /// Parses a point from a [`JsonValue`] object ([`SweepPoint::to_json`]'s
    /// inverse, up to the fixed decimal precision the writer uses).
    pub fn parse(v: &JsonValue) -> Option<SweepPoint> {
        let u64_of = |k: &str| v.get(k)?.as_num()?.as_u64();
        let f64_of = |k: &str| v.get(k).and_then(|x| x.as_num()).map(|n| n.as_f64());
        let bool_of = |k: &str| match v.get(k) {
            Some(JsonValue::Bool(b)) => Some(*b),
            _ => None,
        };
        Some(SweepPoint {
            policy: v.get("policy")?.as_str()?.to_string(),
            // Pre-discipline sweep files (PR 7's rate sweep) have no
            // discipline field; their points read back as builtin.
            discipline: v
                .get("discipline")
                .and_then(|x| x.as_str())
                .unwrap_or(BUILTIN_DISCIPLINE)
                .to_string(),
            // Pre-capacity sweep files (PRs 7–8) have no eviction
            // field; their points read back as eviction-free.
            eviction: v
                .get("eviction")
                .and_then(|x| x.as_str())
                .unwrap_or(NO_EVICTION)
                .to_string(),
            offered_rate: f64_of("offered_rate")?,
            duration_s: f64_of("duration_s")?,
            clients: u64_of("clients")?,
            cores: u64_of("cores")?,
            sent: u64_of("sent")?,
            completed: u64_of("completed")?,
            outstanding: u64_of("outstanding")?,
            // Pre-chaos sweep files (PRs 7–10) have none of the fault /
            // hedging / accounting fields; their points read back as
            // clean, unhedged, warning-free runs.
            timed_out: u64_of("timed_out").unwrap_or(0),
            errors: u64_of("errors")?,
            fault_profile: v
                .get("fault_profile")
                .and_then(|x| x.as_str())
                .unwrap_or(NO_FAULTS)
                .to_string(),
            hedging: bool_of("hedging").unwrap_or(false),
            hedges_sent: u64_of("hedges_sent").unwrap_or(0),
            hedge_wins: u64_of("hedge_wins").unwrap_or(0),
            accounting_warnings: u64_of("accounting_warnings").unwrap_or(0),
            achieved_rate: f64_of("achieved_rate")?,
            loss_rate: f64_of("loss_rate")?,
            zero_loss: bool_of("zero_loss")?,
            behind_max_us: f64_of("behind_max_us")?,
            latency_us: parse_quantiles(v.get("latency_us")),
            latency_small_us: parse_quantiles(v.get("latency_small_us")),
            service_latency_us: parse_quantiles(v.get("service_latency_us")),
            latency_large_us: parse_quantiles(v.get("latency_large_us")),
            tx_copied_bytes: u64_of("tx_copied_bytes")?,
            reply_copied_bytes: u64_of("reply_copied_bytes")?,
        })
    }

    /// This point's [`point_key_chaos`] — its identity under `--resume`.
    pub fn key(&self) -> String {
        point_key_chaos(
            &self.policy,
            &self.discipline,
            &self.eviction,
            &self.fault_profile,
            self.hedging,
            self.offered_rate,
        )
    }
}

/// Parses the [`quantiles_json`] rendering (`null` → `None`).
fn parse_quantiles(v: Option<&JsonValue>) -> Option<Quantiles> {
    let v = v?;
    if matches!(v, JsonValue::Null) {
        return None;
    }
    let f = |k: &str| v.get(k).and_then(|x| x.as_num()).map(|n| n.as_f64());
    Some(Quantiles {
        count: v.get("count")?.as_num()?.as_u64()?,
        mean_us: f("mean_us")?,
        p50_us: f("p50_us")?,
        p90_us: f("p90_us")?,
        p95_us: f("p95_us")?,
        p99_us: f("p99_us")?,
        p999_us: f("p999_us")?,
        p9999_us: f("p9999_us")?,
        max_us: f("max_us")?,
    })
}

/// Starts a server running `discipline` (and `eviction`, in churn mode)
/// over real UDP.
fn start_server(
    discipline: DisciplineKind,
    eviction: EvictionPolicy,
    cfg: &SweepConfig,
    transport: Arc<UdpTransport>,
) -> MinosServer<UdpTransport> {
    // Store geometry sized for the dataset with headroom for large
    // values (the mempool default of 1 GiB rides along from the test
    // config constructors). The store's default per-value cap is the
    // paper's 1 MiB largest item; `--s-large` can dial the profile past
    // it, and a preload that silently hit the cap would turn every
    // "large" op into a miss and void the sweep.
    let n_items = (cfg.keys as usize * 2).max(1024);
    let max_value = (cfg.profile.large_max as usize)
        .next_power_of_two()
        .max(1 << 20);
    let mut config = ServerConfig::for_test(cfg.cores, n_items);
    // The paper's 1 s epochs: rate points run a few seconds, so the
    // controller gets several adaptation rounds.
    config.minos.epoch_ns = 1_000_000_000;
    config.minos.discipline = discipline;
    config.store.max_value_bytes = config.store.max_value_bytes.max(max_value);
    if let Some(churn) = &cfg.churn {
        // The churn sweep's whole point: a mempool smaller than the
        // working set, with eviction to survive it.
        config.store =
            crate::kv::StoreConfig::for_items(cfg.cores * 4, n_items, churn.mempool_bytes);
        config.store.capacity = CapacityConfig {
            policy: eviction,
            ..CapacityConfig::default()
        };
    }
    MinosServer::start_with_transport(config, transport)
}

/// PUTs every dataset key at its profiled size so measured GETs hit.
fn preload(run: &RunConfig, dataset: &Dataset) {
    let mut preloader = run.preloader().expect("bind client socket");
    if let Err(stalled) = crate::driver::preload(&mut preloader.client, dataset) {
        panic!(
            "preload lost {} replies — server not draining?",
            stalled.outstanding
        );
    }
    // An error reply still drains, so a preload whose PUTs bounce (e.g.
    // values past the store's per-value cap) would otherwise silently
    // yield a dataset with no large keys — and a meaningless sweep.
    let errors = preloader.client.totals().errors;
    assert_eq!(
        errors, 0,
        "preload got {errors} error replies — do the dataset's values fit the store?"
    );
}

impl SweepPoint {
    /// The point one run measured. `server_tx_copied` is what the
    /// server's transport copied on its send path during the run; the
    /// point's `tx_copied_bytes` adds the clients'.
    fn measured(
        cfg: &SweepConfig,
        (discipline, eviction): (&str, &str),
        rate: f64,
        report: &RunReport,
        server_tx_copied: u64,
    ) -> SweepPoint {
        let t = &report.total;
        let (sent, outstanding, timed_out) =
            (t.scheduled, report.outstanding(), t.totals.timed_out);
        SweepPoint {
            policy: POLICY.to_string(),
            discipline: discipline.to_string(),
            eviction: eviction.to_string(),
            offered_rate: rate,
            duration_s: cfg.duration.as_secs_f64(),
            clients: u64::from(cfg.clients),
            cores: cfg.cores as u64,
            sent,
            completed: t.totals.completed,
            outstanding,
            timed_out,
            errors: t.totals.errors,
            fault_profile: cfg
                .fault_profile
                .as_deref()
                .unwrap_or(NO_FAULTS)
                .to_string(),
            hedging: cfg.hedge,
            hedges_sent: t.totals.hedges_sent,
            hedge_wins: t.totals.hedge_wins,
            accounting_warnings: report.accounting_warnings,
            achieved_rate: t.totals.completed as f64
                / cfg.duration.as_secs_f64().max(f64::MIN_POSITIVE),
            // A timed-out request is explicit loss: it was abandoned
            // after its retry budget, so it counts against the §5.4
            // verdict exactly like a never-answered one.
            loss_rate: if sent > 0 {
                (outstanding + timed_out) as f64 / sent as f64
            } else {
                0.0
            },
            zero_loss: report.zero_loss(),
            behind_max_us: t.behind_max_ns as f64 / 1e3,
            latency_us: t.latency.quantiles(),
            latency_small_us: t.latency_small.quantiles(),
            service_latency_us: t.service_latency.quantiles(),
            latency_large_us: t.latency_large.quantiles(),
            tx_copied_bytes: t.io.tx_copied_bytes + server_tx_copied,
            reply_copied_bytes: t.reply_copied_bytes,
        }
    }
}

/// Runs the full sweep: for each `(discipline, eviction)` instance, bind
/// a UDP server, preload the dataset once, then measure every rate in
/// `cfg.rates` in order. `progress` sees each completed point as it
/// lands (the CLI streams them as JSON lines).
pub fn run_sweep(cfg: &SweepConfig, progress: impl FnMut(&SweepPoint)) -> Vec<SweepPoint> {
    run_sweep_resuming(cfg, &[], progress)
}

/// [`run_sweep`], resuming an interrupted sweep: any `(discipline,
/// eviction, rate)` point whose [`point_key`] already appears in
/// `existing` is carried over verbatim instead of re-measured — an
/// instance none of whose rates are missing is never even bound. The
/// returned vector holds carried and fresh points in sweep order;
/// `progress` sees only the freshly measured ones.
pub fn run_sweep_resuming(
    cfg: &SweepConfig,
    existing: &[SweepPoint],
    mut progress: impl FnMut(&SweepPoint),
) -> Vec<SweepPoint> {
    cfg.validate();
    let instances = cfg.instances();
    let workload = cfg.workload();
    let mut run = cfg.run_config();
    let mut points = Vec::with_capacity(instances.len() * cfg.rates.len());
    for (ii, &(discipline, eviction)) in instances.iter().enumerate() {
        let labels = (discipline.name(), eviction.name());
        let fault_label = cfg.fault_profile.as_deref().unwrap_or(NO_FAULTS);
        let carried = |rate: f64| {
            let key = point_key_chaos(POLICY, labels.0, labels.1, fault_label, cfg.hedge, rate);
            existing.iter().find(|p| p.key() == key).cloned()
        };
        if cfg.rates.iter().all(|&r| carried(r).is_some()) {
            points.extend(cfg.rates.iter().map(|&r| carried(r).expect("checked")));
            continue;
        }
        let server_port = cfg.base_port + (ii * cfg.cores) as u16;
        let transport = Arc::new(
            UdpTransport::bind(UdpConfig::loopback(server_port, cfg.cores as u16))
                .expect("bind server sockets"),
        );
        let mut server = start_server(discipline, eviction, cfg, Arc::clone(&transport));
        run.target.set_port(server_port);
        // Churn mode has no dataset to preload: the working set would not
        // fit anyway, and the churn PUTs build it live.
        if let Some(dataset) = workload.dataset() {
            preload(&run, dataset);
        }

        for &rate in &cfg.rates {
            if let Some(done) = carried(rate) {
                points.push(done);
                continue;
            }
            let server_tx_copied_before = transport.stats().tx_copied_bytes;
            run.rate = rate;
            let report = crate::driver::run(&run, &workload).expect("bind client sockets");
            let server_tx_copied = transport.stats().tx_copied_bytes - server_tx_copied_before;
            let point = SweepPoint::measured(cfg, labels, rate, &report, server_tx_copied);
            progress(&point);
            points.push(point);
        }
        server.shutdown();
        // Sockets close with the transport; the next instance binds its
        // own port range regardless, so no reuse race.
        drop(server);
        drop(transport);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_point() -> SweepPoint {
        SweepPoint {
            policy: "minos".into(),
            discipline: "size-aware".into(),
            eviction: NO_EVICTION.into(),
            offered_rate: 20_000.0,
            duration_s: 5.0,
            clients: 2,
            cores: 2,
            sent: 100_000,
            completed: 99_990,
            outstanding: 10,
            timed_out: 0,
            errors: 3,
            fault_profile: NO_FAULTS.into(),
            hedging: false,
            hedges_sent: 0,
            hedge_wins: 0,
            accounting_warnings: 0,
            achieved_rate: 19_998.0,
            loss_rate: 0.0001,
            zero_loss: false,
            behind_max_us: 1_234.5,
            latency_us: Some(Quantiles {
                count: 99_990,
                mean_us: 42.0,
                p50_us: 30.0,
                p90_us: 80.0,
                p95_us: 95.0,
                p99_us: 140.0,
                p999_us: 410.0,
                p9999_us: 900.0,
                max_us: 1_500.0,
            }),
            latency_small_us: None,
            service_latency_us: None,
            latency_large_us: None,
            tx_copied_bytes: 0,
            reply_copied_bytes: 123_456,
        }
    }

    #[test]
    fn sweep_point_json_round_trips() {
        let p = sample_point();
        let json = p.to_json();
        let parsed = SweepPoint::parse(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, p);
        // And the rendering is a fixpoint.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn pre_discipline_points_parse_as_builtin() {
        // PR 7's committed rate sweep predates the discipline field;
        // its points must still read back (as the builtin dispatch).
        let mut p = sample_point();
        p.discipline = BUILTIN_DISCIPLINE.into();
        let json = p.to_json().replace("\"discipline\":\"builtin\",", "");
        assert!(!json.contains("discipline"));
        let parsed = SweepPoint::parse(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn point_keys_compare_at_writer_precision() {
        let p = sample_point();
        assert_eq!(p.key(), "minos/size-aware@20000.0");
        assert_eq!(p.key(), point_key("minos", "size-aware", 20_000.04));
        assert_ne!(p.key(), point_key("minos", "cfcfs", 20_000.0));
    }

    #[test]
    fn eviction_points_get_distinct_keys_and_parse_tolerantly() {
        // Classic points keep their historical key; churn points of the
        // same (policy, discipline, rate) differ per eviction policy.
        let mut p = sample_point();
        p.eviction = "clock".into();
        assert_eq!(p.key(), "minos/size-aware+clock@20000.0");
        assert_ne!(p.key(), sample_point().key());
        let round = SweepPoint::parse(&JsonValue::parse(&p.to_json()).unwrap()).unwrap();
        assert_eq!(round, p);
        // Pre-capacity sweep files have no eviction field: they read
        // back as eviction-free with an unchanged key.
        let legacy = sample_point();
        let json = legacy.to_json().replace("\"eviction\":\"none\",", "");
        assert!(!json.contains("eviction"));
        let parsed = SweepPoint::parse(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, legacy);
    }

    #[test]
    fn chaos_points_get_distinct_keys_and_parse_tolerantly() {
        // A fault-injected, hedged point must not collide with the
        // clean run of the same (policy, discipline, rate) under
        // --resume, and must round-trip through JSON.
        let mut p = sample_point();
        p.fault_profile = "drop=0.01,reorder=8,seed=42".into();
        p.hedging = true;
        p.timed_out = 2;
        p.hedges_sent = 150;
        p.hedge_wins = 40;
        assert_eq!(
            p.key(),
            "minos/size-aware+fault:drop=0.01,reorder=8,seed=42+hedge@20000.0"
        );
        assert_ne!(p.key(), sample_point().key());
        let round = SweepPoint::parse(&JsonValue::parse(&p.to_json()).unwrap()).unwrap();
        assert_eq!(round, p);
        // Pre-chaos sweep files have none of the fields: they read back
        // as clean, unhedged runs with an unchanged key.
        let legacy = sample_point();
        let json = legacy
            .to_json()
            .replace("\"timed_out\":0,", "")
            .replace("\"fault_profile\":\"none\",", "")
            .replace("\"hedging\":false,", "")
            .replace("\"hedges_sent\":0,", "")
            .replace("\"hedge_wins\":0,", "")
            .replace("\"accounting_warnings\":0,", "");
        assert!(!json.contains("fault_profile") && !json.contains("hedg"));
        let parsed = SweepPoint::parse(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, legacy);
        assert_eq!(parsed.key(), legacy.key());
    }

    #[test]
    fn fully_resumed_sweep_reruns_nothing() {
        // Every (instance × rate) point is already present: the sweep
        // must return the carried points in order without binding a
        // single socket (progress never fires).
        let mut cfg = SweepConfig::loopback(1, vec![1_000.0, 2_000.0]);
        cfg.disciplines = vec![
            DisciplineKind::SizeAware,
            DisciplineKind::Sho { handoff: 1 },
        ];
        // If any instance were started anyway, its fresh points would
        // stream through `progress` and trip the assertion below.
        let existing: Vec<SweepPoint> = cfg
            .instances()
            .iter()
            .flat_map(|&(discipline, eviction)| {
                cfg.rates.iter().map(move |&rate| SweepPoint {
                    discipline: discipline.name().into(),
                    eviction: eviction.name().into(),
                    offered_rate: rate,
                    ..sample_point()
                })
            })
            .collect();
        let mut streamed = 0;
        let points = run_sweep_resuming(&cfg, &existing, |_| streamed += 1);
        assert_eq!(streamed, 0);
        assert_eq!(points, existing);
    }
}
