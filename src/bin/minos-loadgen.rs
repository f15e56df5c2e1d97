//! `minos-loadgen`: open-loop load generator speaking real UDP to a
//! `minos-server`.
//!
//! Implements the paper's measurement methodology (§5.3–5.4): requests
//! are injected open-loop at a configured rate with exponential
//! inter-arrival gaps, GETs target a uniformly random RX queue while
//! PUTs are keyhash-routed, send timestamps are echoed by the server,
//! and the run reports end-to-end latency percentiles together with a
//! strict zero-loss verdict ("we only report performance values
//! corresponding to scenarios in which the packet loss rate is equal
//! to 0").
//!
//! A single open-loop client tops out well below a busy-polling server's
//! capacity, so the offered load is split across `--clients` OS threads,
//! each with its own UDP socket and open-loop schedule; the report
//! merges per-client latency histograms into aggregate percentiles.
//! Each loop iteration drains *all* currently-due arrivals and sends
//! them as one coalesced burst (one `sendmmsg`), so a thread that falls
//! behind its schedule catches up without paying a syscall per overdue
//! request. `--retry-timeout-ms` optionally enables client-side
//! retransmission (the paper's §4.1 leaves retry to the client) for
//! lossy non-loopback links; the default stays the strict zero-loss
//! reporting mode.
//!
//! `--json` switches stdout to a machine-readable report (for CI gates)
//! and routes the human-readable report and all progress chatter to
//! stderr, so `loadgen --json > report.json` stays parseable even with
//! a server logging to the same console.
//!
//! ```text
//! minos-loadgen --target 127.0.0.1:9000 --queues 4 \
//!               [--clients N] [--rate OPS] [--duration SECS]
//!               [--profile default|write] [--p-large FRAC]
//!               [--keys N] [--large-keys N]
//!               [--seed S] [--no-preload] [--retry-timeout-ms MS]
//!               [--max-retries N] [--hedge] [--fault-profile SPEC]
//!               [--pin BASECPU] [--sockbuf BYTES]
//!               [--batch N] [--json]
//! ```

use minos::core::client::{Client, ClientTotals, HedgePolicy, RetryPolicy};
use minos::net::{
    endpoint_for, FaultProfile, FaultStats, FaultTransport, Transport, TransportStats, UdpConfig,
    UdpIoStats, UdpTransport,
};
use minos::obs::{MetricsRegistry, Snapshot};
use minos::report::{self, JsonObj};
use minos::stats::{LatencyHistogram, Quantiles};
use minos::workload::{
    AccessGenerator, ChurnConfig, ChurnGenerator, Dataset, OpSpec, OpenLoop, Operation, Profile,
    Rng, DEFAULT_PROFILE,
};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone)]
struct Args {
    target_ip: Ipv4Addr,
    target_port: u16,
    queues: u16,
    clients: u16,
    rate: f64,
    duration: Duration,
    profile: Profile,
    keys: u64,
    large_keys: u64,
    seed: u64,
    churn: Option<ChurnConfig>,
    preload: bool,
    retry: Option<RetryPolicy>,
    hedge: Option<HedgePolicy>,
    fault: Option<FaultProfile>,
    pin_base: Option<usize>,
    sockbuf: usize,
    batch: usize,
    server_stats: Option<String>,
    json: bool,
}

use minos::human;

const USAGE: &str = "minos-loadgen: open-loop UDP load generator for minos-server

USAGE:
    minos-loadgen --target IP:BASEPORT --queues N [OPTIONS]

OPTIONS:
    --target IP:PORT       server address; PORT is the base port of queue 0
    --queues N             number of server RX queues (= server --cores)
    --clients N            client threads, each with its own socket and
                           open-loop schedule at rate/N (default 1)
    --rate OPS             aggregate offered load, requests/second
                           (default 20000)
    --duration SECS        measured run length (default 10)
    --profile NAME         'default' (95:5 GET:PUT, p_L=0.125%) or 'write'
                           (50:50; the paper's write-intensive mix)
    --p-large FRAC         override the profile's large-request fraction
                           p_L (0..1), e.g. 0.02 for a fragmented-PUT
                           heavy run
    --s-large BYTES        override the profile's max large value size
                           s_L (default 500000). Under --fault-profile a
                           smaller s_L keeps per-reply fragment counts
                           low enough that the retry budget converges
    --keys N               dataset size in keys (default 100000)
    --large-keys N         number of large keys (default 100)
    --seed S               RNG seed (default 42)
    --churn                churn mode: a zipfian-reuse working set meant
                           to outgrow the server's mempool (pair with a
                           small server --mem and an --eviction-policy).
                           Replaces the paper profile; --keys sets the
                           population, the profile's GET ratio and zipf
                           skew still apply; no preload (the run builds
                           its own working set)
    --churn-value-min B    smallest churn value in bytes (default 64)
    --churn-value-max B    largest churn value in bytes (default 4096;
                           keep below the server's admission cutoff for
                           a reject-free run)
    --churn-ttl-ms MS      TTL stamped on every churn PUT (default 0 =
                           never expires)
    --no-preload           skip the PUT preload phase
    --retry-timeout-ms MS  resend a request unanswered for MS ms (default
                           off: the paper's strict zero-loss mode). The
                           timeout backs off exponentially (jittered, x2
                           per retry, capped at 8x); a request that
                           exhausts its budget is counted as timed_out —
                           explicit loss, never silent
    --max-retries N        resend budget per request (default 8)
    --hedge                hedged requests: a small request unanswered
                           past the adaptive hedge delay (the p99 of
                           observed service latency) is duplicated to
                           another RX queue; first reply wins, the
                           loser is counted in wasted_replies. Hedges
                           never touch the open-loop schedule clock
    --hedge-percentile P   service-latency percentile driving the hedge
                           delay (default 99)
    --hedge-min-delay-us N floor on the hedge delay (default 500)
    --hedge-max-delay-us N cap on the hedge delay, also used until
                           enough samples accumulate (default 100000)
    --fault-profile SPEC   wrap each measured client's transport in a
                           deterministic fault injector, e.g.
                           'drop=0.01,dup=0.001,reorder=8,seed=42'
                           (rx./tx. prefixes scope a direction). The
                           preload path stays clean; injected faults
                           are reported under \"fault\"
    --pin BASECPU          pin client thread c to cpu BASECPU+c
                           (sched_setaffinity; best-effort)
    --sockbuf BYTES        client socket buffer size (default 4 MiB)
    --batch N              max datagrams per recvmmsg/sendmmsg syscall
                           (default 32; 1 = one syscall per datagram);
                           also caps how many due arrivals one loop
                           iteration coalesces into a single send burst
    --server-stats PATH    merge the final server snapshot from PATH (a
                           server --stats-file JSONL timeline; the last
                           line is taken) into the --json report under
                           \"server_stats\"
    --json                 print a machine-readable JSON report to stdout
                           (the human report moves to stderr)
    -h, --help             this help
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        target_ip: Ipv4Addr::LOCALHOST,
        target_port: 9000,
        queues: 0,
        clients: 1,
        rate: 20_000.0,
        duration: Duration::from_secs(10),
        profile: DEFAULT_PROFILE,
        keys: 100_000,
        large_keys: 100,
        seed: 42,
        churn: None,
        preload: true,
        retry: None,
        hedge: None,
        fault: None,
        pin_base: None,
        sockbuf: 4 << 20,
        batch: minos::net::DEFAULT_SYSCALL_BATCH,
        server_stats: None,
        json: false,
    };
    let mut retry_timeout_ms = 0u64;
    let mut max_retries = 8u32;
    let mut hedge = false;
    let mut hedge_policy = HedgePolicy::default();
    let mut p_large_override: Option<f64> = None;
    let mut s_large_override: Option<u64> = None;
    let mut churn = false;
    let mut churn_value_min = 64u64;
    let mut churn_value_max = 4096u64;
    let mut churn_ttl_ms = 0u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--target" => {
                let v = value("--target")?;
                let (ip, port) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--target must be IP:PORT, got {v}"))?;
                args.target_ip = ip.parse().map_err(|e| format!("--target ip: {e}"))?;
                args.target_port = port.parse().map_err(|e| format!("--target port: {e}"))?;
            }
            "--queues" => {
                args.queues = value("--queues")?
                    .parse()
                    .map_err(|e| format!("--queues: {e}"))?
            }
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--rate" => {
                args.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--duration" => {
                args.duration = Duration::from_secs_f64(
                    value("--duration")?
                        .parse()
                        .map_err(|e| format!("--duration: {e}"))?,
                )
            }
            "--profile" => {
                args.profile = match value("--profile")?.as_str() {
                    "default" => DEFAULT_PROFILE,
                    "write" => minos::workload::profiles::WRITE_INTENSIVE_PROFILE,
                    other => return Err(format!("unknown profile: {other}")),
                }
            }
            "--p-large" => {
                p_large_override = Some(
                    value("--p-large")?
                        .parse()
                        .map_err(|e| format!("--p-large: {e}"))?,
                )
            }
            "--s-large" => {
                s_large_override = Some(
                    value("--s-large")?
                        .parse()
                        .map_err(|e| format!("--s-large: {e}"))?,
                )
            }
            "--keys" => {
                args.keys = value("--keys")?
                    .parse()
                    .map_err(|e| format!("--keys: {e}"))?
            }
            "--large-keys" => {
                args.large_keys = value("--large-keys")?
                    .parse()
                    .map_err(|e| format!("--large-keys: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--churn" => churn = true,
            "--churn-value-min" => {
                churn_value_min = value("--churn-value-min")?
                    .parse()
                    .map_err(|e| format!("--churn-value-min: {e}"))?
            }
            "--churn-value-max" => {
                churn_value_max = value("--churn-value-max")?
                    .parse()
                    .map_err(|e| format!("--churn-value-max: {e}"))?
            }
            "--churn-ttl-ms" => {
                churn_ttl_ms = value("--churn-ttl-ms")?
                    .parse()
                    .map_err(|e| format!("--churn-ttl-ms: {e}"))?
            }
            "--no-preload" => args.preload = false,
            "--retry-timeout-ms" => {
                retry_timeout_ms = value("--retry-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--retry-timeout-ms: {e}"))?
            }
            "--max-retries" => {
                max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?
            }
            "--hedge" => hedge = true,
            "--hedge-percentile" => {
                hedge_policy.percentile = value("--hedge-percentile")?
                    .parse()
                    .map_err(|e| format!("--hedge-percentile: {e}"))?
            }
            "--hedge-min-delay-us" => {
                hedge_policy.min_delay = Duration::from_micros(
                    value("--hedge-min-delay-us")?
                        .parse()
                        .map_err(|e| format!("--hedge-min-delay-us: {e}"))?,
                )
            }
            "--hedge-max-delay-us" => {
                hedge_policy.max_delay = Duration::from_micros(
                    value("--hedge-max-delay-us")?
                        .parse()
                        .map_err(|e| format!("--hedge-max-delay-us: {e}"))?,
                )
            }
            "--fault-profile" => {
                args.fault = Some(
                    FaultProfile::parse(&value("--fault-profile")?)
                        .map_err(|e| format!("--fault-profile: {e}"))?,
                )
            }
            "--pin" => {
                args.pin_base = Some(value("--pin")?.parse().map_err(|e| format!("--pin: {e}"))?)
            }
            "--sockbuf" => {
                args.sockbuf = value("--sockbuf")?
                    .parse()
                    .map_err(|e| format!("--sockbuf: {e}"))?
            }
            "--batch" => {
                args.batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--server-stats" => args.server_stats = Some(value("--server-stats")?),
            "--json" => args.json = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.queues == 0 {
        return Err("--queues is required (match the server's --cores)".into());
    }
    if args.clients == 0 {
        return Err("--clients must be positive".into());
    }
    if args.target_port.checked_add(args.queues - 1).is_none() {
        return Err(format!(
            "--target port {} + {} queues exceeds 65535",
            args.target_port, args.queues
        ));
    }
    if args.rate <= 0.0 {
        return Err("--rate must be positive".into());
    }
    if let Some(p) = p_large_override {
        if !(0.0..=1.0).contains(&p) {
            return Err("--p-large must be in [0, 1]".into());
        }
        args.profile.p_large = p;
    }
    if let Some(s) = s_large_override {
        if s == 0 {
            return Err("--s-large must be positive".into());
        }
        args.profile.large_max = s;
    }
    if retry_timeout_ms > 0 {
        args.retry = Some(RetryPolicy::new(
            Duration::from_millis(retry_timeout_ms),
            max_retries,
        ));
    }
    if hedge {
        if !(1.0..=100.0).contains(&hedge_policy.percentile) {
            return Err("--hedge-percentile must be in [1, 100]".into());
        }
        if hedge_policy.max_delay.is_zero() || hedge_policy.min_delay > hedge_policy.max_delay {
            return Err(
                "hedge delays need 0 < --hedge-min-delay-us <= --hedge-max-delay-us".into(),
            );
        }
        if args.queues < 2 {
            return Err("--hedge needs >= 2 queues (the hedge copy goes to another queue)".into());
        }
        args.hedge = Some(hedge_policy);
    }
    if churn {
        if churn_value_min == 0 || churn_value_min > churn_value_max {
            return Err(format!(
                "churn needs 0 < --churn-value-min ({churn_value_min}) <= --churn-value-max ({churn_value_max})"
            ));
        }
        args.churn = Some(ChurnConfig {
            num_keys: args.keys,
            value_min: churn_value_min,
            value_max: churn_value_max,
            zipf_s: args.profile.zipf_s,
            get_ratio: args.profile.get_ratio,
            ttl_ms: churn_ttl_ms,
            salt: args.seed,
        });
        args.preload = false;
    }
    Ok(args)
}

/// Builds one client. `measured` clients get the chaos treatment —
/// their transport is wrapped in a [`FaultTransport`] when
/// `--fault-profile` is set and hedging is armed when `--hedge` is set;
/// the preload client always runs on the clean path (faults are a
/// property of the measured run, not of dataset construction). The
/// typed [`UdpTransport`] is returned alongside for `io_stats`, and the
/// fault layer (when present) for its injection counters.
type FaultLayer = Option<Arc<FaultTransport<UdpTransport>>>;

fn make_client(
    args: &Args,
    client_id: u16,
    measured: bool,
) -> (Arc<UdpTransport>, FaultLayer, Client) {
    let config = UdpConfig {
        socket_buffer_bytes: args.sockbuf,
        batch: args.batch,
        // One poll can drain up to 4096 replies whose payloads are all
        // alive at once; size the pool past that so the steady-state
        // client RX path never falls back to the allocator.
        pool_slots: 8192,
        ..UdpConfig::client(Ipv4Addr::UNSPECIFIED)
    };
    let transport = match UdpTransport::bind_client_with(config) {
        Ok(t) => Arc::new(t),
        Err(e) => {
            eprintln!("error: cannot bind client socket: {e}");
            std::process::exit(1);
        }
    };
    let endpoint = transport.local_endpoint(0);
    let server = endpoint_for(args.target_ip, args.target_port);
    let (dyn_transport, fault): (Arc<dyn Transport>, FaultLayer) =
        match args.fault.filter(|_| measured) {
            Some(profile) => {
                let ft = Arc::new(FaultTransport::new(Arc::clone(&transport), profile));
                (Arc::clone(&ft) as Arc<dyn Transport>, Some(ft))
            }
            None => (Arc::clone(&transport) as Arc<dyn Transport>, None),
        };
    let mut client = Client::with_transport(
        dyn_transport,
        endpoint,
        server,
        args.queues,
        client_id,
        args.seed ^ u64::from(client_id),
    );
    if let Some(policy) = args.retry {
        client = client.with_retry(policy);
    }
    if measured {
        if let Some(policy) = args.hedge {
            client = client.with_hedging(policy);
        }
    }
    (transport, fault, client)
}

/// The per-thread request source: the paper's access generator, or the
/// churn generator when `--churn` is in force.
enum Generator {
    Access(AccessGenerator),
    Churn(ChurnGenerator),
}

impl Generator {
    fn next_op(&self, rng: &mut Rng) -> OpSpec {
        match self {
            Generator::Access(g) => g.next_op(rng),
            Generator::Churn(g) => g.next_op(rng),
        }
    }
}

fn make_generator(args: &Args) -> Generator {
    match args.churn {
        Some(cfg) => Generator::Churn(ChurnGenerator::new(cfg)),
        None => {
            let dataset = Dataset::new(
                args.keys,
                args.large_keys,
                0.4, // the paper's tiny fraction
                args.profile.large_max,
                args.seed,
            );
            Generator::Access(AccessGenerator::new(
                dataset,
                args.profile.p_large,
                args.profile.get_ratio,
                args.profile.zipf_s,
            ))
        }
    }
}

/// What one measured client thread hands back for merging.
struct ClientReport {
    sent: u64,
    totals: ClientTotals,
    latency: LatencyHistogram,
    latency_large: LatencyHistogram,
    service_latency: LatencyHistogram,
    behind_max: Duration,
    elapsed: Duration,
    stats: TransportStats,
    io: UdpIoStats,
    drained: bool,
    /// Send bursts issued (each is one `tx_burst`).
    flushes: u64,
    /// Largest number of requests coalesced into one burst.
    coalesced_max: u64,
    /// PUT requests sent.
    puts_sent: u64,
    /// Value bytes carried by those PUTs — what a one-copy server
    /// ingest must report as its `put_copied_bytes`, byte for byte.
    put_value_bytes: u64,
    /// Stale partial replies this client's reassembler timed out.
    reassembly_evictions: u64,
    /// Value bytes copied while reassembling multi-fragment replies
    /// (exactly once per received large-GET value byte).
    reply_copied_bytes: u64,
    /// Faults the injector planted on this client's transport (all
    /// zero without `--fault-profile`).
    fault: FaultStats,
    /// Pending-table size after the drain — the independent check on
    /// `totals.outstanding()`'s counter arithmetic.
    pending_len: u64,
}

/// One client thread's measured run: open-loop injection at
/// `rate / clients` for `duration`, then a drain. Every loop iteration
/// drains all currently-due arrivals (capped at the syscall batch) and
/// sends them as one coalesced burst.
fn run_client(args: &Args, client_idx: u16) -> ClientReport {
    if let Some(base) = args.pin_base {
        let cpu = base + client_idx as usize;
        if let Err(e) = minos::net::affinity::pin_current_thread(cpu) {
            eprintln!("loadgen client {client_idx}: pinning to cpu {cpu} failed: {e}");
        }
    }
    // Client ids 1..=N (the preloader uses 99 + N).
    let (transport, fault, mut client) = make_client(args, 1 + client_idx, true);
    let generator = make_generator(args);

    let rate = args.rate / f64::from(args.clients);
    // The injection schedule lives on the *client's* clock so each
    // arrival's deadline can ride along to `send_batch_at` — latency is
    // measured from that deadline, not from whenever this loop got
    // around to the send (the coordinated-omission fix).
    let run_start_ns = client.now_ns();
    let mut arrivals = OpenLoop::new(rate, run_start_ns);
    let mut arrival_rng = Rng::new(args.seed ^ 0x9e37_79b9 ^ (u64::from(client_idx) << 17));
    let mut op_rng = Rng::new(
        (args.seed ^ (u64::from(client_idx) + 1).wrapping_mul(0x5851_f42d_4c95_7f2d))
            .wrapping_mul(0x2545_f491_4f6c_dd1d),
    );
    let start = Instant::now();
    let mut next_at = arrivals.next_arrival(&mut arrival_rng);
    let mut sent = 0u64;
    let mut behind_max_ns = 0u64;
    let mut flushes = 0u64;
    let mut coalesced_max = 0u64;
    let mut puts_sent = 0u64;
    let mut put_value_bytes = 0u64;
    let coalesce_cap = args.batch.max(1);
    let mut due: Vec<(OpSpec, u64)> = Vec::with_capacity(coalesce_cap);
    while start.elapsed() < args.duration {
        let now = client.now_ns();
        // Drain every arrival whose time has come into one burst; the
        // cap keeps a burst inside one sendmmsg, and anything still due
        // goes out on the immediately following iteration. Each op
        // keeps its scheduled deadline.
        due.clear();
        while now >= next_at && due.len() < coalesce_cap {
            behind_max_ns = behind_max_ns.max(now - next_at);
            due.push((generator.next_op(&mut op_rng), next_at));
            next_at = arrivals.next_arrival(&mut arrival_rng);
        }
        if !due.is_empty() {
            client.send_batch_at(&due);
            sent += due.len() as u64;
            for (spec, _) in &due {
                if spec.op == Operation::Put {
                    puts_sent += 1;
                    put_value_bytes += spec.item_size;
                }
            }
            flushes += 1;
            coalesced_max = coalesced_max.max(due.len() as u64);
        }
        client.poll();
    }
    let elapsed = start.elapsed();
    let drained = client.drain(Duration::from_secs(10));
    if let Some(f) = &fault {
        // Keep polling past the reorder quiescence grace so the
        // injector's hold buffers flush (straggler duplicate/late
        // replies) and their RX-pool slots return — the report's pool
        // gauge must distinguish a leak from a still-armed hold.
        let grace = Duration::from_micros(f.profile().reorder_hold_us * 2 + 5_000);
        let flush_deadline = Instant::now() + grace;
        while Instant::now() < flush_deadline {
            client.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let reassembly_evictions = client.reassembly_evictions();
    ClientReport {
        sent,
        totals: client.totals(),
        latency: client.latency().clone(),
        latency_large: client.latency_large().clone(),
        service_latency: client.service_latency().clone(),
        behind_max: Duration::from_nanos(behind_max_ns),
        elapsed,
        stats: transport.stats(),
        io: transport.io_stats(),
        drained,
        flushes,
        coalesced_max,
        puts_sent,
        put_value_bytes,
        reassembly_evictions,
        reply_copied_bytes: client.reply_copied_bytes(),
        fault: fault.map(|f| f.fault_stats()).unwrap_or_default(),
        pending_len: client.pending_len(),
    }
}

fn preload(args: &Args, dataset: &Dataset) {
    let (_preload_transport, _no_faults, mut preload_client) =
        make_client(args, 99 + args.clients, false);
    let t0 = Instant::now();
    if let Err(stalled) = minos::preload::preload(&mut preload_client, dataset, args.keys) {
        eprintln!(
            "error: preload lost {} replies after {}s — is the server running with --cores={} at the target address?",
            stalled.outstanding,
            t0.elapsed().as_secs(),
            args.queues,
        );
        std::process::exit(1);
    }
    human!(
        args,
        "preload: {} PUTs in {:.2}s ({} errors)",
        args.keys,
        t0.elapsed().as_secs_f64(),
        preload_client.totals().errors,
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    human!(
        args,
        "minos-loadgen: target {}:{}+{}q, {} clients x {:.0} ops/s for {:?}, {} keys ({} large), profile p_L={:.4}% GET={:.0}%{}",
        args.target_ip,
        args.target_port,
        args.queues,
        args.clients,
        args.rate / f64::from(args.clients),
        args.duration,
        args.keys,
        args.large_keys,
        args.profile.p_large * 100.0,
        args.profile.get_ratio * 100.0,
        match args.retry {
            Some(p) => format!(
                ", retry {}ms x{}{}",
                p.timeout.as_millis(),
                p.max_retries,
                if args.hedge.is_some() { " + hedging" } else { "" },
            ),
            None if args.hedge.is_some() => ", hedging".into(),
            None => ", zero-loss mode".into(),
        },
    );
    if let Some(p) = &args.fault {
        human!(
            args,
            "fault injection:  drop={}/{} dup={}/{} reorder<={}/{} delay<={}us/{}us (rx/tx), seed {}",
            p.rx.drop,
            p.tx.drop,
            p.rx.dup,
            p.tx.dup,
            p.rx.reorder,
            p.tx.reorder,
            p.rx.delay_us,
            p.tx.delay_us,
            p.seed,
        );
    }

    if let Some(cfg) = &args.churn {
        let ws = ChurnGenerator::new(*cfg).working_set_bytes();
        human!(
            args,
            "churn mode: {} keys x {}..{} bytes = {} byte working set, ttl {} ms, no preload",
            cfg.num_keys,
            cfg.value_min,
            cfg.value_max,
            ws,
            cfg.ttl_ms,
        );
    }

    // ---- Preload: PUT every key at its dataset size so GETs hit.
    // A separate client keeps the measured latency histograms clean. ----
    if args.preload {
        let dataset = Dataset::new(
            args.keys,
            args.large_keys,
            0.4,
            args.profile.large_max,
            args.seed,
        );
        preload(&args, &dataset);
    }

    // ---- Measured run: N threads, each open-loop at rate/N. ----
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let args = &args;
                scope.spawn(move || run_client(args, c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // ---- Merge + report (the paper's zero-loss + tail methodology). ----
    let mut latency = LatencyHistogram::new();
    let mut latency_large = LatencyHistogram::new();
    let mut service_latency = LatencyHistogram::new();
    let mut sent = 0u64;
    let mut completed = 0u64;
    let mut errors = 0u64;
    let mut retransmits = 0u64;
    let mut outstanding = 0u64;
    let mut timed_out = 0u64;
    let mut hedges_sent = 0u64;
    let mut hedge_wins = 0u64;
    let mut wasted_replies = 0u64;
    let mut overloaded = 0u64;
    let mut fault = FaultStats::default();
    let mut accounting_warnings = 0u64;
    let mut behind_max = Duration::ZERO;
    let mut elapsed = Duration::ZERO;
    let mut tx_packets = 0u64;
    let mut rx_packets = 0u64;
    let mut frames_tx = 0u64;
    let mut frames_rx = 0u64;
    let mut tx_dropped = 0u64;
    let mut rx_syscalls = 0u64;
    let mut tx_syscalls = 0u64;
    let mut batched = false;
    let mut offload = false;
    let mut tx_trains = 0u64;
    let mut tx_train_packets = 0u64;
    let mut rx_trains = 0u64;
    let mut rx_train_packets = 0u64;
    let mut all_drained = true;
    let mut flushes = 0u64;
    let mut coalesced_max = 0u64;
    let mut pool_hits = 0u64;
    let mut pool_misses = 0u64;
    let mut pool_outstanding = 0u64;
    let mut tx_copied_bytes = 0u64;
    let mut puts_sent = 0u64;
    let mut put_value_bytes = 0u64;
    let mut reassembly_evictions = 0u64;
    let mut reply_copied_bytes = 0u64;
    for r in &reports {
        latency.merge(&r.latency);
        latency_large.merge(&r.latency_large);
        service_latency.merge(&r.service_latency);
        sent += r.sent;
        completed += r.totals.completed;
        errors += r.totals.errors;
        retransmits += r.totals.retransmits;
        outstanding += r.totals.outstanding();
        timed_out += r.totals.timed_out;
        hedges_sent += r.totals.hedges_sent;
        hedge_wins += r.totals.hedge_wins;
        wasted_replies += r.totals.wasted_replies;
        overloaded += r.totals.overloaded;
        fault.absorb(&r.fault);
        // The accounting identity, checked with *independent* counters:
        // requests this loop scheduled must equal what the client
        // transmitted, and the derived outstanding() must equal the
        // actual pending-table size. Together they pin
        // sent == completed + outstanding + timed_out to reality.
        if r.sent != r.totals.sent {
            eprintln!(
                "loadgen: accounting warning: scheduled {} requests but client counted {} sent",
                r.sent, r.totals.sent,
            );
            accounting_warnings += 1;
        }
        if r.totals.outstanding() != r.pending_len {
            eprintln!(
                "loadgen: accounting warning: outstanding() = {} but pending table holds {}",
                r.totals.outstanding(),
                r.pending_len,
            );
            accounting_warnings += 1;
        }
        behind_max = behind_max.max(r.behind_max);
        elapsed = elapsed.max(r.elapsed);
        tx_packets += r.stats.tx_packets;
        rx_packets += r.stats.rx_packets;
        frames_tx += r.totals.frames_tx;
        frames_rx += r.totals.frames_rx;
        tx_dropped += r.stats.tx_dropped;
        rx_syscalls += r.io.rx_syscalls;
        tx_syscalls += r.io.tx_syscalls;
        batched |= r.io.batched;
        offload |= r.io.offload;
        tx_trains += r.io.tx_trains;
        tx_train_packets += r.io.tx_train_packets;
        rx_trains += r.io.rx_trains;
        rx_train_packets += r.io.rx_train_packets;
        all_drained &= r.drained;
        flushes += r.flushes;
        coalesced_max = coalesced_max.max(r.coalesced_max);
        pool_hits += r.io.pool_hits;
        pool_misses += r.io.pool_misses;
        pool_outstanding += r.io.pool_outstanding;
        tx_copied_bytes += r.io.tx_copied_bytes;
        puts_sent += r.puts_sent;
        put_value_bytes += r.put_value_bytes;
        reassembly_evictions += r.reassembly_evictions;
        reply_copied_bytes += r.reply_copied_bytes;
    }
    // A timed-out request is an explicit loss: it was abandoned after
    // its retry budget, so a run that timed anything out is not
    // zero-loss even though the drain terminated cleanly.
    let zero_loss = all_drained && outstanding == 0 && timed_out == 0;
    let pool_hit_rate = minos::net::pool::hit_rate(pool_hits, pool_misses);

    human!(args, "");
    human!(args, "== minos-loadgen report ==");
    human!(
        args,
        "offered rate:     {:.0} ops/s across {} clients",
        args.rate,
        args.clients
    );
    human!(
        args,
        "achieved:         {:.0} ops/s ({} ops in {:.2}s; max scheduling lag {:?})",
        completed as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        completed,
        elapsed.as_secs_f64(),
        behind_max,
    );
    human!(
        args,
        "sent/completed:   {sent} / {completed} ({errors} errors)"
    );
    if args.retry.is_some() {
        human!(
            args,
            "retransmits:      {retransmits} ({timed_out} timed out past the retry budget)"
        );
    }
    if args.hedge.is_some() {
        human!(
            args,
            "hedging:          {hedges_sent} hedges sent, {hedge_wins} won, {wasted_replies} wasted replies"
        );
    }
    if overloaded > 0 {
        human!(
            args,
            "overloaded:       {overloaded} requests shed by the server (client backed off)"
        );
    }
    if args.fault.is_some() {
        human!(
            args,
            "fault injection:  {} events (rx: {} dropped, {} dup'd, {} reordered, {} delayed; tx: {} dropped, {} dup'd, {} reordered, {} delayed)",
            fault.total(),
            fault.rx_dropped,
            fault.rx_duplicated,
            fault.rx_reordered,
            fault.rx_delayed,
            fault.tx_dropped,
            fault.tx_duplicated,
            fault.tx_reordered,
            fault.tx_delayed,
        );
    }
    if accounting_warnings > 0 {
        human!(
            args,
            "accounting:       {accounting_warnings} WARNINGS — counters and tables disagree, treat this run as suspect"
        );
    }
    if args.clients > 1 {
        for (c, r) in reports.iter().enumerate() {
            match r.latency.quantiles() {
                Some(q) => human!(
                    args,
                    "client {c:>3}:       sent {} completed {} p50 {:.1}us p99 {:.1}us p99.9 {:.1}us{}",
                    r.sent,
                    r.totals.completed,
                    q.p50_us,
                    q.p99_us,
                    q.p999_us,
                    if r.totals.outstanding() > 0 {
                        format!(" ({} lost)", r.totals.outstanding())
                    } else {
                        String::new()
                    },
                ),
                None => human!(
                    args,
                    "client {c:>3}:       sent {} completed {} (no completions)",
                    r.sent,
                    r.totals.completed
                ),
            }
        }
    }
    if let Some(q) = latency.quantiles() {
        human!(args, "latency (all):    {q}");
    }
    if let Some(q) = service_latency.quantiles() {
        human!(
            args,
            "latency (svc):    {q} (from first transmission; the gap to the line above is scheduling lag)"
        );
    }
    if let Some(q) = latency_large.quantiles() {
        human!(args, "latency (large):  {q}");
    } else {
        human!(args, "latency (large):  no large requests completed");
    }
    human!(
        args,
        "client transport: tx {tx_packets} rx {rx_packets} packets carrying {frames_tx} / {frames_rx} frames ({tx_dropped} tx drops); {} — {rx_syscalls} rx / {tx_syscalls} tx syscalls",
        if batched {
            "recvmmsg/sendmmsg"
        } else {
            "recv_from/send_to"
        },
    );
    human!(
        args,
        "coalescing:       {flushes} send bursts for {sent} requests ({:.2} reqs/burst avg, {coalesced_max} max); {:.2} pkts/tx-syscall",
        sent as f64 / (flushes.max(1)) as f64,
        tx_packets as f64 / (tx_syscalls.max(1)) as f64,
    );
    human!(
        args,
        "rx buffer pool:   {pool_hits} hits / {pool_misses} misses ({:.2}% hit rate), {pool_outstanding} outstanding",
        pool_hit_rate * 100.0,
    );
    human!(
        args,
        "puts:             {puts_sent} sent carrying {put_value_bytes} value bytes (a one-copy server ingest reports put_copied_bytes == this)",
    );
    human!(
        args,
        "zero-copy tx:     {tx_copied_bytes} value bytes copied on the send path{}",
        if tx_copied_bytes == 0 {
            " (scatter-gather end to end)"
        } else {
            " — gather fallback engaged"
        },
    );
    if reassembly_evictions > 0 {
        human!(
            args,
            "reassembly:       {reassembly_evictions} stale partial replies evicted (fragments lost mid-message)",
        );
    }
    if zero_loss {
        if retransmits == 0 {
            human!(args, "zero-loss:        PASS (every request completed)");
        } else {
            human!(
                args,
                "zero-loss:        PASS after {retransmits} retransmits — not a §5.4 zero-loss measurement"
            );
        }
    } else {
        human!(
            args,
            "zero-loss:        FAIL ({outstanding} outstanding, {timed_out} timed out) — per §5.4 this run's numbers should be discarded"
        );
    }

    if args.json {
        let server_stats = read_server_stats(&args);
        println!(
            "{}",
            json_report(
                &args,
                &reports,
                JsonTotals {
                    sent,
                    completed,
                    errors,
                    retransmits,
                    outstanding,
                    timed_out,
                    hedges_sent,
                    hedge_wins,
                    wasted_replies,
                    overloaded,
                    fault,
                    accounting_warnings,
                    elapsed,
                    behind_max,
                    tx_packets,
                    rx_packets,
                    frames_tx,
                    frames_rx,
                    tx_dropped,
                    rx_syscalls,
                    tx_syscalls,
                    batched,
                    offload,
                    tx_trains,
                    tx_train_packets,
                    rx_trains,
                    rx_train_packets,
                    flushes,
                    coalesced_max,
                    pool_hits,
                    pool_misses,
                    pool_outstanding,
                    tx_copied_bytes,
                    puts_sent,
                    put_value_bytes,
                    reassembly_evictions,
                    reply_copied_bytes,
                    zero_loss,
                    latency: latency.quantiles(),
                    latency_large: latency_large.quantiles(),
                    service_latency: service_latency.quantiles(),
                },
                &server_stats,
            )
        );
    }
    if !zero_loss {
        std::process::exit(3);
    }
}

/// Everything the JSON report needs, merged across client threads.
struct JsonTotals {
    sent: u64,
    completed: u64,
    errors: u64,
    retransmits: u64,
    outstanding: u64,
    timed_out: u64,
    hedges_sent: u64,
    hedge_wins: u64,
    wasted_replies: u64,
    overloaded: u64,
    fault: FaultStats,
    accounting_warnings: u64,
    elapsed: Duration,
    behind_max: Duration,
    tx_packets: u64,
    rx_packets: u64,
    frames_tx: u64,
    frames_rx: u64,
    tx_dropped: u64,
    rx_syscalls: u64,
    tx_syscalls: u64,
    batched: bool,
    offload: bool,
    tx_trains: u64,
    tx_train_packets: u64,
    rx_trains: u64,
    rx_train_packets: u64,
    flushes: u64,
    coalesced_max: u64,
    pool_hits: u64,
    pool_misses: u64,
    pool_outstanding: u64,
    tx_copied_bytes: u64,
    puts_sent: u64,
    put_value_bytes: u64,
    reassembly_evictions: u64,
    reply_copied_bytes: u64,
    zero_loss: bool,
    latency: Option<Quantiles>,
    latency_large: Option<Quantiles>,
    service_latency: Option<Quantiles>,
}

/// Loads the final server snapshot for `--server-stats`: the last
/// non-empty line of the server's `--stats-file` timeline, validated as
/// a snapshot and passed through verbatim. Returns `"null"` (with a
/// stderr warning) when the file is missing or malformed, so the report
/// shape is stable either way.
fn read_server_stats(args: &Args) -> String {
    let Some(path) = &args.server_stats else {
        return "null".into();
    };
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("minos-loadgen: --server-stats {path}: {e}");
            return "null".into();
        }
    };
    let Some(line) = content.lines().rev().find(|l| !l.trim().is_empty()) else {
        eprintln!("minos-loadgen: --server-stats {path}: empty timeline");
        return "null".into();
    };
    match Snapshot::parse_json_line(line) {
        Ok(_) => line.to_string(),
        Err(e) => {
            eprintln!("minos-loadgen: --server-stats {path}: not a snapshot line: {e}");
            "null".into()
        }
    }
}

/// The merged run as canonical dotted metrics (`client.*`,
/// `transport.*`, `pool.*`) — the same registry/snapshot machinery the
/// server uses, so one consumer can parse both sides of a run.
fn metrics_json(t: &JsonTotals, pool_hit_rate: f64) -> String {
    let reg = MetricsRegistry::new();
    reg.counter("client.sent").add(t.sent);
    reg.counter("client.completed").add(t.completed);
    reg.counter("client.errors").add(t.errors);
    reg.counter("client.retransmits").add(t.retransmits);
    reg.counter("client.outstanding").add(t.outstanding);
    reg.counter("client.timed_out").add(t.timed_out);
    reg.counter("client.hedges_sent").add(t.hedges_sent);
    reg.counter("client.hedge_wins").add(t.hedge_wins);
    reg.counter("client.wasted_replies").add(t.wasted_replies);
    reg.counter("client.overloaded").add(t.overloaded);
    reg.counter("client.accounting_warnings")
        .add(t.accounting_warnings);
    reg.counter("client.puts_sent").add(t.puts_sent);
    reg.counter("client.put_value_bytes").add(t.put_value_bytes);
    reg.counter("client.reassembly_evictions")
        .add(t.reassembly_evictions);
    reg.counter("client.reply_copied_bytes")
        .add(t.reply_copied_bytes);
    reg.counter("client.flushes").add(t.flushes);
    reg.counter("transport.tx_packets").add(t.tx_packets);
    reg.counter("transport.rx_packets").add(t.rx_packets);
    reg.counter("transport.frames_tx").add(t.frames_tx);
    reg.counter("transport.frames_rx").add(t.frames_rx);
    reg.counter("transport.tx_dropped").add(t.tx_dropped);
    reg.counter("transport.rx_syscalls").add(t.rx_syscalls);
    reg.counter("transport.tx_syscalls").add(t.tx_syscalls);
    reg.counter("transport.tx_copied_bytes")
        .add(t.tx_copied_bytes);
    reg.gauge("transport.batched")
        .set(if t.batched { 1.0 } else { 0.0 });
    reg.gauge("transport.offload")
        .set(if t.offload { 1.0 } else { 0.0 });
    reg.counter("transport.tx_trains").add(t.tx_trains);
    reg.counter("transport.tx_train_packets")
        .add(t.tx_train_packets);
    reg.counter("transport.rx_trains").add(t.rx_trains);
    reg.counter("transport.rx_train_packets")
        .add(t.rx_train_packets);
    reg.counter("pool.hits").add(t.pool_hits);
    reg.counter("pool.misses").add(t.pool_misses);
    reg.gauge("pool.outstanding").set(t.pool_outstanding as f64);
    reg.gauge("pool.hit_rate").set(pool_hit_rate);
    reg.snapshot().metrics_json()
}

/// The machine-readable report `--json` prints to stdout, built on
/// [`minos::report::JsonObj`]. The legacy field names are frozen (CI
/// parses them); `client`, `metrics` and `server_stats` are additive.
fn json_report(args: &Args, reports: &[ClientReport], t: JsonTotals, server_stats: &str) -> String {
    let pool_hit_rate = minos::net::pool::hit_rate(t.pool_hits, t.pool_misses);
    let per_client: Vec<String> = reports
        .iter()
        .map(|r| {
            JsonObj::new()
                .u64("sent", r.sent)
                .u64("completed", r.totals.completed)
                .u64("outstanding", r.totals.outstanding())
                .u64("flushes", r.flushes)
                .u64("coalesced_max", r.coalesced_max)
                .raw("latency_us", &report::quantiles_json(r.latency.quantiles()))
                .finish()
        })
        .collect();
    let transport = JsonObj::new()
        .bool("batched", t.batched)
        .bool("offload", t.offload)
        .u64("tx_trains", t.tx_trains)
        .u64("tx_train_packets", t.tx_train_packets)
        .u64("rx_trains", t.rx_trains)
        .u64("rx_train_packets", t.rx_train_packets)
        .u64("tx_packets", t.tx_packets)
        .u64("rx_packets", t.rx_packets)
        .u64("frames_tx", t.frames_tx)
        .u64("frames_rx", t.frames_rx)
        .u64("tx_dropped", t.tx_dropped)
        .u64("tx_syscalls", t.tx_syscalls)
        .u64("rx_syscalls", t.rx_syscalls)
        .f64(
            "pkts_per_tx_syscall",
            t.tx_packets as f64 / (t.tx_syscalls.max(1)) as f64,
            3,
        )
        .f64(
            "pkts_per_rx_syscall",
            t.rx_packets as f64 / (t.rx_syscalls.max(1)) as f64,
            3,
        )
        .u64("tx_copied_bytes", t.tx_copied_bytes)
        .finish();
    let coalescing = JsonObj::new()
        .u64("flushes", t.flushes)
        .f64(
            "avg_per_flush",
            t.sent as f64 / (t.flushes.max(1)) as f64,
            3,
        )
        .u64("max_per_flush", t.coalesced_max)
        .finish();
    let pool = JsonObj::new()
        .u64("hits", t.pool_hits)
        .u64("misses", t.pool_misses)
        .u64("outstanding", t.pool_outstanding)
        .f64("hit_rate", pool_hit_rate, 6)
        .finish();
    let client = JsonObj::new()
        .u64("reassembly_evictions", t.reassembly_evictions)
        .u64("reply_copied_bytes", t.reply_copied_bytes)
        .finish();
    let fault = match &args.fault {
        None => "null".to_string(),
        Some(_) => JsonObj::new()
            .u64("rx_dropped", t.fault.rx_dropped)
            .u64("rx_duplicated", t.fault.rx_duplicated)
            .u64("rx_reordered", t.fault.rx_reordered)
            .u64("rx_delayed", t.fault.rx_delayed)
            .u64("rx_blackholed", t.fault.rx_blackholed)
            .u64("tx_dropped", t.fault.tx_dropped)
            .u64("tx_duplicated", t.fault.tx_duplicated)
            .u64("tx_reordered", t.fault.tx_reordered)
            .u64("tx_delayed", t.fault.tx_delayed)
            .u64("total", t.fault.total())
            .finish(),
    };
    let churn = match &args.churn {
        None => "null".to_string(),
        Some(cfg) => JsonObj::new()
            .u64("keys", cfg.num_keys)
            .u64("value_min", cfg.value_min)
            .u64("value_max", cfg.value_max)
            .u64("ttl_ms", cfg.ttl_ms)
            .u64(
                "working_set_bytes",
                ChurnGenerator::new(*cfg).working_set_bytes(),
            )
            .finish(),
    };
    JsonObj::new()
        .f64("offered_rate", args.rate, 1)
        .u64("clients", u64::from(args.clients))
        .f64("duration_s", args.duration.as_secs_f64(), 3)
        .f64("elapsed_s", t.elapsed.as_secs_f64(), 3)
        .f64(
            "achieved_rate",
            t.completed as f64 / t.elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
            1,
        )
        .f64("max_scheduling_lag_us", t.behind_max.as_secs_f64() * 1e6, 1)
        .u64("sent", t.sent)
        .u64("completed", t.completed)
        .u64("errors", t.errors)
        .u64("retransmits", t.retransmits)
        .u64("outstanding", t.outstanding)
        .u64("timed_out", t.timed_out)
        .bool("hedging", args.hedge.is_some())
        .u64("hedges_sent", t.hedges_sent)
        .u64("hedge_wins", t.hedge_wins)
        .u64("wasted_replies", t.wasted_replies)
        .u64("overloaded", t.overloaded)
        .u64("accounting_warnings", t.accounting_warnings)
        .u64("puts_sent", t.puts_sent)
        .u64("put_value_bytes", t.put_value_bytes)
        .bool("zero_loss", t.zero_loss)
        .raw("latency_us", &report::quantiles_json(t.latency))
        .raw("latency_large_us", &report::quantiles_json(t.latency_large))
        .raw(
            "service_latency_us",
            &report::quantiles_json(t.service_latency),
        )
        .raw("transport", &transport)
        .raw("coalescing", &coalescing)
        .raw("pool", &pool)
        .raw("client", &client)
        .raw("fault", &fault)
        .raw("churn", &churn)
        .raw("metrics", &metrics_json(&t, pool_hit_rate))
        .raw("server_stats", server_stats)
        .raw("per_client", &format!("[{}]", per_client.join(",")))
        .finish()
}
