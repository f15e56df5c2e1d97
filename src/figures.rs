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
//! (discipline, eviction, rate): its labels plus the run's
//! [`RunSummary`], the schema `minos-loadgen --json` shares. It is
//! serialized as JSON by [`SweepPoint::to_json`] and parsed back by
//! [`SweepPoint::parse`]; the committed `BENCH_fig_*.json` files and the
//! CI gates (`tools/gate.py`) both speak it.

use crate::core::client::{HedgePolicy, RetryPolicy};
use crate::core::dispatch::DisciplineKind;
use crate::core::server::{MinosServer, ServerConfig};
use crate::core::MinosConfig;
use crate::driver::{JsonObj, RunConfig, RunSummary, Workload, NO_FAULTS};
use crate::kv::{CapacityConfig, EvictionPolicy};
use crate::net::{FaultProfile, Transport, UdpConfig, UdpTransport};
use crate::obs::JsonValue;
use crate::workload::{ChurnConfig, ChurnGenerator, Dataset, Profile, DEFAULT_PROFILE};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::Duration;

/// The engine label of every point this module writes
/// (`SweepPoint.policy`): there is one engine, and what a point varies
/// is its discipline.
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
    /// Churn mode: the server mempool budget in bytes. When set, the
    /// sweep offers the churn workload (64 B to 4 KiB values, a working
    /// set sized to outgrow this budget) to one instance per
    /// (discipline, eviction policy in [`CHURN_EVICTIONS`]) instead of
    /// the paper profile.
    pub churn: Option<usize>,
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

/// The eviction policies a churn sweep compares, one server instance
/// each: size-blind CLOCK against the size-aware hand.
pub const CHURN_EVICTIONS: [EvictionPolicy; 2] =
    [EvictionPolicy::Clock, EvictionPolicy::SizeAwareClock];

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
        match self.churn {
            Some(_) => Workload::Churn(ChurnGenerator::new(ChurnConfig {
                num_keys: self.keys,
                zipf_s: self.profile.zipf_s,
                get_ratio: self.profile.get_ratio,
                salt: self.seed,
                ..ChurnConfig::default()
            })),
            None => Workload::etc(self.keys, self.large_keys, self.profile, self.seed),
        }
    }

    /// The server instances this sweep runs, in port order: every
    /// configured discipline, crossed with every eviction policy in
    /// churn mode.
    fn instances(&self) -> Vec<(DisciplineKind, EvictionPolicy)> {
        let evictions: &[EvictionPolicy] = match self.churn {
            Some(_) => &CHURN_EVICTIONS,
            None => &[EvictionPolicy::None],
        };
        self.disciplines
            .iter()
            .flat_map(|&d| evictions.iter().map(move |&ev| (d, ev)))
            .collect()
    }
}

/// The eviction label of a classic (non-churn) sweep point.
pub const NO_EVICTION: &str = "none";

/// The identity of a sweep point under `--resume`: a point is skipped
/// when an already-written point has the same key. Churn-sweep points
/// append `+{eviction}` (so `clock` and `size-aware-clock` runs stay
/// distinct), fault-injected points `+fault:{spec}` and hedged points
/// `+hedge`; classic, clean, unhedged points keep their historical
/// `{policy}/{discipline}@{rate}` key. The rate is compared at the
/// writer's one-decimal precision.
pub fn point_key(
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

/// One measured `(discipline, offered rate)` point: the JSON record
/// schema of the committed `BENCH_fig_*.json` files: its labels, then
/// the run's [`RunSummary`] (the schema `minos-loadgen --json` shares).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Engine name ([`POLICY`]).
    pub policy: String,
    /// Queue discipline name ([`DisciplineKind::name`]).
    pub discipline: String,
    /// Eviction policy name ([`EvictionPolicy::name`]) for churn-sweep
    /// points; [`NO_EVICTION`] for classic rate-sweep points.
    pub eviction: String,
    /// What the run measured. Its `tx_copied_bytes` counts the server's
    /// transport as well as the clients'.
    pub summary: RunSummary,
}

impl SweepPoint {
    /// Serializes the point as one JSON object (one line of a
    /// `BENCH_fig_*.json` sweep).
    pub fn to_json(&self) -> String {
        let labels = JsonObj::new()
            .str("policy", &self.policy)
            .str("discipline", &self.discipline)
            .str("eviction", &self.eviction);
        self.summary.write(labels).finish()
    }

    /// Parses a point from a [`JsonValue`] object ([`SweepPoint::to_json`]'s
    /// inverse, up to the fixed decimal precision the writer uses). A
    /// point missing any label or summary field is malformed (`None`).
    pub fn parse(v: &JsonValue) -> Option<SweepPoint> {
        let label = |k: &str| Some(v.get(k)?.as_str()?.to_string());
        Some(SweepPoint {
            policy: label("policy")?,
            discipline: label("discipline")?,
            eviction: label("eviction")?,
            summary: RunSummary::parse(v)?,
        })
    }

    /// This point's [`point_key`]: its identity under `--resume`.
    pub fn key(&self) -> String {
        let s = &self.summary;
        point_key(
            &self.policy,
            &self.discipline,
            &self.eviction,
            &s.fault_profile,
            s.hedging,
            s.offered_rate,
        )
    }
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
    if let Some(mempool_bytes) = cfg.churn {
        // The churn sweep's whole point: a mempool smaller than the
        // working set, with eviction to survive it.
        config.store = crate::kv::StoreConfig::for_items(cfg.cores * 4, n_items, mempool_bytes);
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

/// Runs the full sweep: for each `(discipline, eviction)` instance, bind
/// a UDP server, preload the dataset once, then measure every rate in
/// `cfg.rates` in order. `progress` sees each freshly measured point as
/// it lands (the CLI streams them as JSON lines).
///
/// Resumes an interrupted sweep: any `(discipline, eviction, rate)`
/// point whose [`point_key`] already appears in `existing` is carried
/// over verbatim instead of re-measured, and an instance none of whose
/// rates are missing is never even bound. The returned vector holds
/// carried and fresh points in sweep order.
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
            let key = point_key(POLICY, labels.0, labels.1, fault_label, cfg.hedge, rate);
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
            let mut summary = RunSummary::new(&run, fault_label, &report);
            summary.tx_copied_bytes += server_tx_copied;
            let point = SweepPoint {
                policy: POLICY.to_string(),
                discipline: labels.0.to_string(),
                eviction: labels.1.to_string(),
                summary,
            };
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
            summary: sample_summary(),
        }
    }

    fn sample_summary() -> RunSummary {
        RunSummary {
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
            latency_us: Some(crate::stats::Quantiles {
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
    fn point_keys_compare_at_writer_precision() {
        let p = sample_point();
        assert_eq!(p.key(), "minos/size-aware@20000.0");
        let key = |discipline, rate| point_key("minos", discipline, "none", "none", false, rate);
        assert_eq!(p.key(), key("size-aware", 20_000.04));
        assert_ne!(p.key(), key("cfcfs", 20_000.0));
    }

    #[test]
    fn eviction_points_get_distinct_keys_and_parse_strictly() {
        // Classic points keep their historical key; churn points of the
        // same (policy, discipline, rate) differ per eviction policy.
        let mut p = sample_point();
        p.eviction = "clock".into();
        assert_eq!(p.key(), "minos/size-aware+clock@20000.0");
        assert_ne!(p.key(), sample_point().key());
        let round = SweepPoint::parse(&JsonValue::parse(&p.to_json()).unwrap()).unwrap();
        assert_eq!(round, p);
        // A point without its eviction label is malformed.
        let json = sample_point()
            .to_json()
            .replace("\"eviction\":\"none\",", "");
        assert!(!json.contains("eviction"));
        assert_eq!(SweepPoint::parse(&JsonValue::parse(&json).unwrap()), None);
    }

    #[test]
    fn chaos_points_get_distinct_keys_and_parse_strictly() {
        // A fault-injected, hedged point must not collide with the
        // clean run of the same (policy, discipline, rate) under
        // --resume, and must round-trip through JSON.
        let mut p = sample_point();
        p.summary.fault_profile = "drop=0.01,reorder=8,seed=42".into();
        p.summary.hedging = true;
        p.summary.timed_out = 2;
        p.summary.hedges_sent = 150;
        p.summary.hedge_wins = 40;
        assert_eq!(
            p.key(),
            "minos/size-aware+fault:drop=0.01,reorder=8,seed=42+hedge@20000.0"
        );
        assert_ne!(p.key(), sample_point().key());
        let round = SweepPoint::parse(&JsonValue::parse(&p.to_json()).unwrap()).unwrap();
        assert_eq!(round, p);
        // A point missing any one of the fault, hedging or accounting
        // fields is malformed.
        let json = sample_point().to_json();
        for field in [
            "\"timed_out\":0,",
            "\"fault_profile\":\"none\",",
            "\"hedging\":false,",
            "\"hedges_sent\":0,",
            "\"hedge_wins\":0,",
            "\"accounting_warnings\":0,",
        ] {
            let cut = json.replace(field, "");
            assert_ne!(cut, json, "{field} is in the rendering");
            assert_eq!(SweepPoint::parse(&JsonValue::parse(&cut).unwrap()), None);
        }
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
                    summary: RunSummary {
                        offered_rate: rate,
                        ..sample_summary()
                    },
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
