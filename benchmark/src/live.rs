//! The live run: a fresh `minos-server` driven closed-loop over loopback
//! UDP from one thread and one socket through
//! `minos_core::client::Client`, measured strictly from outside.
//!
//! Per server: set-up (spawn, readiness ping, byte-bounded preload), an
//! unloaded phase (1 outstanding), a loaded phase (8 outstanding), a
//! verify pass, SIGINT, then the server's own final snapshot. A run
//! measures several servers in turn and reduces their windows together.

use crate::metrics::Values;
use crate::probe::Probe;
use crate::server::{base_port, host_cpu_ticks, steal_frac, ServerProc};
use crate::stats::{median, quantile, sorted, Windows};
use crate::workloads::{fill_byte, OpStream, Workload, SERVER_CORES};
use minos_core::client::{Client, Completion, RetryPolicy};
use minos_net::{endpoint_for, Transport, UdpTransport};
use minos_obs::Snapshot;
use minos_stats::LatencyHistogram;
use minos_wire::message::{OpKind, ReplyStatus};
use minos_workload::{OpSpec, Operation};
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outstanding requests in the loaded phase.
pub const LOADED_DEPTH: u64 = 8;
/// Share of the measured seconds the unloaded phase takes.
const UNLOADED_SHARE: f64 = 0.2;
/// Length of the windows each phase is reduced in. Short enough that,
/// even with a tenth of the host's CPU time stolen, a good share of the
/// windows run undisturbed.
const WINDOW_NS: u64 = 100_000_000;
/// Throughput is read off the best windows: the noise on a shared host
/// (steal, a descheduled poller) only ever takes throughput away, so
/// the 90th percentile over 100 ms windows repeats within 7 % where the
/// median swings by 25 %.
const THROUGHPUT_WINDOW_QUANTILE: f64 = 0.90;
/// Preload flow control: the stock loadgen's 256-request window puts
/// ~25 MB of back-to-back large PUTs into 4 MiB socket buffers and
/// loses replies; bounding bytes as well as requests does not.
const PRELOAD_MAX_BYTES: u64 = 512 << 10;
const PRELOAD_MAX_REQUESTS: usize = 128;
/// A request unanswered this long is abandoned and counted as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Above this share of stolen host CPU a run is flagged `noisy`.
const NOISY_STEAL: f64 = 0.15;

pub struct LiveConfig<'a> {
    pub server_bin: &'a Path,
    pub out_dir: &'a Path,
    pub seed: u64,
    /// Measured seconds, split between the unloaded and loaded phases.
    pub seconds: f64,
    /// How many fresh servers to set up and measure in turn.
    pub setups: usize,
    /// `MINOS_BENCH_SERVER_ARGS`, split on whitespace.
    pub extra_server_args: &'a [String],
}

/// Wall time and host steal of one phase, for the provenance block.
pub struct PhaseInfo {
    pub name: &'static str,
    pub wall_s: f64,
    pub steal_frac: f64,
}

pub struct LiveResult {
    pub end_to_end: Values,
    /// The in-situ per-layer metrics; a traced run adds the replay's.
    pub layers: Values,
    /// Sample counts behind the quantiles, by name.
    pub samples: Vec<(&'static str, u64)>,
    pub phases: Vec<PhaseInfo>,
    pub server_args: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Every failure, spelled out.
    pub problems: Vec<String>,
    pub noisy: bool,
}

impl LiveResult {
    /// How many samples stand behind the end-to-end metric `name`; 0
    /// for metrics that are not reduced from samples.
    pub fn samples_for(&self, name: &str) -> u64 {
        let key = match name {
            "setup_s" => "setups",
            "unloaded_small_p50_us" => "unloaded_small",
            n if n.starts_with("small_") => "loaded_small",
            n if n.starts_with("large_") => "loaded_large",
            "throughput_ops_s" => "loaded",
            _ => return 0,
        };
        self.samples
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, n)| *n)
    }
}

/// A set-up server with its client, probe and request stream.
struct Live {
    server: ServerProc,
    client: Client,
    transport: Arc<UdpTransport>,
    probe: Probe,
    stream: OpStream,
    allow_not_found: bool,
    /// Value bytes of every PUT sent.
    put_bytes: u64,
    unexpected: u64,
    problems: Vec<String>,
}

impl Live {
    fn send(&mut self, op: &OpSpec) {
        if op.op == Operation::Put {
            self.put_bytes += op.item_size;
        }
        self.client.send(op);
    }

    fn account(&mut self, c: &Completion) {
        let expected = match c.status {
            ReplyStatus::Ok => true,
            ReplyStatus::NotFound => self.allow_not_found && c.kind == OpKind::GetReply,
            _ => false,
        };
        if !expected {
            self.unexpected += 1;
            if self.problems.len() < 8 {
                self.problems.push(format!(
                    "unexpected {:?} on {:?} key {}",
                    c.status, c.kind, c.key
                ));
            }
        }
    }

    /// Polls until nothing is outstanding; false on timeout.
    fn drain(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.client.totals().outstanding() > 0 {
            for c in self.client.poll() {
                self.account(&c);
            }
            if Instant::now() > deadline {
                return false;
            }
        }
        true
    }

    /// One PUT per key, at most [`PRELOAD_MAX_BYTES`] of value bytes
    /// and [`PRELOAD_MAX_REQUESTS`] requests in flight, drained between
    /// windows.
    fn preload(&mut self, ops: Vec<OpSpec>) -> Result<(), String> {
        let mut window: Vec<OpSpec> = Vec::with_capacity(PRELOAD_MAX_REQUESTS);
        let mut bytes = 0u64;
        for op in ops {
            if !window.is_empty()
                && (window.len() >= PRELOAD_MAX_REQUESTS
                    || bytes + op.item_size > PRELOAD_MAX_BYTES)
            {
                self.flush_preload(&mut window)?;
                bytes = 0;
            }
            bytes += op.item_size;
            window.push(op);
        }
        self.flush_preload(&mut window)
    }

    fn flush_preload(&mut self, window: &mut Vec<OpSpec>) -> Result<(), String> {
        self.put_bytes += window.iter().map(|op| op.item_size).sum::<u64>();
        self.client.send_batch(window);
        window.clear();
        if self.drain(DRAIN_TIMEOUT) {
            Ok(())
        } else {
            Err(format!(
                "preload lost {} replies",
                self.client.totals().outstanding()
            ))
        }
    }
}

/// Spawns a server, waits until both queues answer a GET-miss ping and
/// preloads the workload's population; returns it with the seconds all
/// of that took.
fn set_up(cfg: &LiveConfig, w: &Workload, attempt: u16) -> Result<(Live, f64), String> {
    let started = Instant::now();
    let port = base_port(attempt);
    let server = ServerProc::spawn(
        cfg.server_bin,
        cfg.out_dir,
        w.name,
        port,
        &w.server_flags(),
        cfg.extra_server_args,
    )?;
    let mut probe = Probe::bind(port)?;
    probe.wait_ready(SERVER_CORES, Duration::from_secs(10))?;

    let transport = Arc::new(
        UdpTransport::bind_client(Ipv4Addr::LOCALHOST).map_err(|e| format!("client bind: {e}"))?,
    );
    let client = Client::with_transport(
        Arc::clone(&transport) as Arc<dyn Transport>,
        transport.local_endpoint(0),
        endpoint_for(Ipv4Addr::LOCALHOST, port),
        SERVER_CORES,
        0,
        cfg.seed,
    )
    .with_retry(RetryPolicy {
        timeout: REQUEST_TIMEOUT,
        max_retries: 0,
        backoff: 1.0,
        max_timeout: REQUEST_TIMEOUT,
    });
    let stream = w.ops(cfg.seed);
    let preload: Vec<OpSpec> = stream.preload().collect();
    let mut live = Live {
        server,
        client,
        transport,
        probe,
        stream,
        allow_not_found: w.allows_not_found(),
        put_bytes: 0,
        unexpected: 0,
        problems: Vec::new(),
    };
    live.preload(preload)?;
    Ok((live, started.elapsed().as_secs_f64()))
}

struct Phase {
    windows: Windows,
    wall_s: f64,
    steal_frac: f64,
    /// Time between consecutive driver-loop iterations: the closed
    /// loop's stand-in for generator lateness.
    loop_gap: LatencyHistogram,
    loop_gap_max_ns: u64,
}

/// Closed loop at `depth` outstanding for `secs` (cut to whole
/// windows); completions are timed first transmission → matched reply
/// (`Completion::service_ns`).
fn run_phase(live: &mut Live, depth: u64, secs: f64) -> Phase {
    let mut win = Windows::new((secs * 1e9) as u64, WINDOW_NS);
    let phase_ns = win.duration_ns();
    let mut loop_gap = LatencyHistogram::new();
    let mut loop_gap_max_ns = 0u64;
    let steal_before = host_cpu_ticks();
    let start = Instant::now();
    let mut last_ns = 0u64;
    loop {
        let at_ns = start.elapsed().as_nanos() as u64;
        let gap = at_ns - last_ns;
        loop_gap.record_ns(gap);
        loop_gap_max_ns = loop_gap_max_ns.max(gap);
        last_ns = at_ns;
        for c in live.client.poll() {
            live.account(&c);
            win.record(at_ns, c.large, c.service_ns);
        }
        if at_ns >= phase_ns {
            break;
        }
        while live.client.totals().outstanding() < depth {
            let op = live.stream.next_op();
            live.send(&op);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    Phase {
        windows: win,
        wall_s,
        steal_frac: steal_frac(steal_before, host_cpu_ticks()),
        loop_gap,
        loop_gap_max_ns,
    }
}

/// Reads the sampled keys and every large key back through the probe
/// and compares length and bytes with the generator's fill. Returns the
/// number of mismatches.
fn verify(live: &mut Live) -> u64 {
    let mut mismatches = 0;
    let keys = live.stream.verify_keys();
    for (i, (key, len)) in keys.into_iter().enumerate() {
        let queue = (i % usize::from(SERVER_CORES)) as u16;
        let problem = match live.probe.get(queue, key, REQUEST_TIMEOUT) {
            None => Some("no reply".to_string()),
            Some((ReplyStatus::Ok, value)) => {
                if value.len() != len {
                    Some(format!("length {} != {len}", value.len()))
                } else if value.iter().any(|&b| b != fill_byte(key)) {
                    Some("bytes differ from the generator's fill".to_string())
                } else {
                    None
                }
            }
            Some((ReplyStatus::NotFound, _)) if live.allow_not_found => None,
            Some((status, _)) => Some(format!("status {status:?}")),
        };
        if let Some(p) = problem {
            mismatches += 1;
            if live.problems.len() < 16 {
                live.problems.push(format!("verify key {key}: {p}"));
            }
        }
    }
    mismatches
}

fn us(ns: Option<f64>) -> f64 {
    ns.map_or(f64::NAN, |v| v / 1e3)
}

/// The counter or gauge `name` of the final snapshot, as a number.
fn num(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name)
        .map(|c| c as f64)
        .or_else(|| snap.gauge(name))
        .unwrap_or(f64::NAN)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn sum_cores(snap: &Snapshot, field: &str) -> f64 {
    (0..SERVER_CORES)
        .map(|c| num(snap, &format!("core.{c}.{field}")))
        .sum()
}

/// (p50, p99) of the per-core `class.kind` histogram with the most
/// samples; zeros when no core recorded that class.
fn busiest_hist(snap: &Snapshot, class: &str, kind: &str) -> (f64, f64) {
    (0..SERVER_CORES)
        .filter_map(|c| snap.hist(&format!("core.{c}.{class}.{kind}")))
        .max_by_key(|h| h.count)
        .map_or((0.0, 0.0), |h| (h.p50 as f64, h.p99 as f64))
}

/// Everything measured on one server instance.
struct Instance {
    setup_s: f64,
    setup_steal: f64,
    unloaded: Phase,
    loaded: Phase,
    verify_s: f64,
    /// Server utime + stime over the loaded phase, seconds.
    cpu_s: f64,
    /// Involuntary context switches of the server's threads over the
    /// loaded phase.
    ctxsw: f64,
    rss_mb: f64,
    snap: Snapshot,
    server_args: Vec<String>,
    /// Client-side counts over the instance's whole life.
    completed: u64,
    put_bytes: u64,
    reply_copied_bytes: u64,
    io: minos_net::UdpIoStats,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Sets up a fresh server and measures it: unloaded phase, loaded
/// phase, verify pass, SIGINT, invariants over the final snapshot.
fn measure_instance(
    cfg: &LiveConfig,
    w: &Workload,
    attempt: u16,
    unloaded_secs: f64,
    loaded_secs: f64,
) -> Result<Instance, String> {
    let steal_before = host_cpu_ticks();
    let (mut live, setup_s) = set_up(cfg, w, attempt)?;
    let setup_steal = steal_frac(steal_before, host_cpu_ticks());

    let unloaded = run_phase(&mut live, 1, unloaded_secs);
    live.drain(DRAIN_TIMEOUT);

    let cpu_before = live.server.cpu_seconds()?;
    let ctxsw_before = live.server.invol_ctxsw()?;
    let loaded = run_phase(&mut live, LOADED_DEPTH, loaded_secs);
    let cpu_s = live.server.cpu_seconds()? - cpu_before;
    let ctxsw = live.server.invol_ctxsw()? - ctxsw_before;
    let drained = live.drain(DRAIN_TIMEOUT);

    let verify_started = Instant::now();
    let mismatches = verify(&mut live);
    let verify_s = verify_started.elapsed().as_secs_f64();

    let rss_mb = live.server.rss_hwm_mb()?;
    let totals = live.client.totals();
    let io = live.transport.io_stats();
    let reply_copied_bytes = live.client.reply_copied_bytes();
    let Live {
        server,
        probe,
        put_bytes,
        unexpected,
        mut problems,
        ..
    } = live;
    let server_args = server.args.clone();
    let snap = server.stop()?;

    // Invariants the server's own end state must satisfy.
    let mut broken = 0u64;
    let mut check = |ok: bool, what: String| {
        if !ok {
            broken += 1;
            problems.push(what);
        }
    };
    let server_ops = sum_cores(&snap, "ops");
    let answered = (totals.completed + probe.answered) as f64;
    check(
        server_ops == answered,
        format!("sum of core.N.ops {server_ops} != {answered} replies received"),
    );
    for name in [
        "transport.tx_copied_bytes",
        "pool.outstanding",
        "store.accounting_warnings",
    ] {
        check(
            num(&snap, name) == 0.0,
            format!("{name} = {}", num(&snap, name)),
        );
    }
    let copied = num(&snap, "ingest.put_copied_bytes");
    check(
        copied == put_bytes as f64,
        format!("ingest.put_copied_bytes {copied} != {put_bytes} PUT value bytes sent"),
    );
    check(
        drained,
        format!(
            "{} requests unanswered after the drain",
            totals.outstanding()
        ),
    );
    if totals.timed_out > 0 {
        problems.push(format!("{} requests timed out", totals.timed_out));
    }

    Ok(Instance {
        setup_s,
        setup_steal,
        unloaded,
        loaded,
        verify_s,
        cpu_s,
        ctxsw,
        rss_mb,
        snap,
        server_args,
        completed: totals.completed,
        put_bytes,
        reply_copied_bytes,
        io,
        attempted: totals.sent + probe.sent,
        failed: unexpected + totals.timed_out + totals.outstanding() + mismatches + broken,
        problems,
    })
}

/// Runs `w` on `cfg.setups` fresh servers in turn, splitting the
/// measured seconds evenly between them, and reduces everything to
/// named numbers. Latency and throughput are reduced per window and a
/// quantile over every window of every server reported: which threads
/// share a vCPU is re-drawn with each server, so several short servers
/// sample more scheduler placements than one long one.
pub fn run(cfg: &LiveConfig, w: &Workload) -> Result<LiveResult, String> {
    assert!(cfg.setups >= 1);
    let share = cfg.seconds / cfg.setups as f64;
    let mut instances = Vec::new();
    for attempt in 0..cfg.setups {
        instances.push(measure_instance(
            cfg,
            w,
            attempt as u16,
            share * UNLOADED_SHARE,
            share * (1.0 - UNLOADED_SHARE),
        )?);
    }

    let mut phases = Vec::new();
    let mut unloaded = Windows::default();
    let mut loaded = Windows::default();
    let mut loop_gap = LatencyHistogram::new();
    let (mut loaded_wall_s, mut loaded_steal_s) = (0.0, 0.0);
    for i in &instances {
        for (name, wall_s, steal) in [
            ("setup", i.setup_s, i.setup_steal),
            ("unloaded", i.unloaded.wall_s, i.unloaded.steal_frac),
            ("loaded", i.loaded.wall_s, i.loaded.steal_frac),
            ("verify", i.verify_s, 0.0),
        ] {
            phases.push(PhaseInfo {
                name,
                wall_s,
                steal_frac: steal,
            });
        }
        unloaded.append(&i.unloaded.windows);
        loaded.append(&i.loaded.windows);
        loop_gap.merge(&i.loaded.loop_gap);
        loaded_wall_s += i.loaded.wall_s;
        loaded_steal_s += i.loaded.steal_frac * i.loaded.wall_s;
    }
    let sum = |f: fn(&Instance) -> f64| instances.iter().map(f).sum::<f64>();
    let loaded_steal = ratio(loaded_steal_s, loaded_wall_s);
    let attempted: u64 = instances.iter().map(|i| i.attempted).sum();
    let failed: u64 = instances.iter().map(|i| i.failed).sum();
    let problems: Vec<String> = instances.iter().flat_map(|i| i.problems.clone()).collect();

    // Quantiles are taken per window and the median over the windows
    // reported; the large class, rare on three workloads, is pooled.
    let over_windows = |large: bool, q: f64| us(median(&loaded.quantile_per_window(large, q)));
    let mut end_to_end = Values::new();
    let mut put = |name: &str, value: f64| {
        end_to_end.insert(name.to_string(), value);
    };
    // Set-up noise is one-sided too: the fastest of the set-ups.
    put(
        "setup_s",
        instances
            .iter()
            .map(|i| i.setup_s)
            .fold(f64::INFINITY, f64::min),
    );
    put(
        "throughput_ops_s",
        quantile(
            &sorted(loaded.throughput_per_window()),
            THROUGHPUT_WINDOW_QUANTILE,
        )
        .unwrap_or(f64::NAN),
    );
    put("small_p50_us", over_windows(false, 0.50));
    put("small_p75_us", over_windows(false, 0.75));
    put("large_p50_us", us(loaded.quantile_pooled(true, 0.50)));
    put("large_p90_us", us(loaded.quantile_pooled(true, 0.90)));
    put(
        "unloaded_small_p50_us",
        us(median(&unloaded.quantile_per_window(false, 0.50))),
    );
    put(
        "server_rss_mb",
        median(&instances.iter().map(|i| i.rss_mb).collect::<Vec<f64>>()).unwrap_or(f64::NAN),
    );
    // Server-side layer metrics come from the last server's snapshot:
    // its whole life, preload and verify included.
    let last = instances.last().expect("at least one instance");
    let snap = &last.snap;
    let server_ops = sum_cores(snap, "ops");
    let mut layers = Values::new();
    let mut layer = |name: &str, value: f64| {
        layers.insert(name.to_string(), value);
    };
    for class in ["small", "large"] {
        for (kind, label) in [("queue_wait_ns", "queue_wait"), ("service_ns", "service")] {
            let (p50, p99) = busiest_hist(snap, class, kind);
            layer(&format!("core.{class}_{label}_p50_ns"), p50);
            layer(&format!("core.{class}_{label}_p99_ns"), p99);
        }
    }
    layer(
        "core.handoffs_per_op",
        ratio(sum_cores(snap, "handoffs"), server_ops),
    );
    layer(
        "core.large_route_frac",
        ratio(sum_cores(snap, "large_ops"), server_ops),
    );
    let max_core_ops = (0..SERVER_CORES)
        .map(|c| num(snap, &format!("core.{c}.ops")))
        .fold(0.0, f64::max);
    layer(
        "core.ops_imbalance",
        ratio(max_core_ops * f64::from(SERVER_CORES), server_ops),
    );
    layer(
        "core.soft_queue_drops",
        num(snap, "engine.soft_queue_drops"),
    );
    layer("core.sheds", num(snap, "dispatch.sheds"));
    layer(
        "core.plan_threshold_bytes",
        num(snap, "plan.threshold_bytes"),
    );
    layer("core.plan_n_small", num(snap, "plan.n_small"));
    layer(
        "core.ingest_copies_per_byte",
        ratio(num(snap, "ingest.put_copied_bytes"), last.put_bytes as f64),
    );
    layer(
        "core.reassembly_evictions",
        num(snap, "ingest.reassembly_evictions"),
    );
    // Empty polls count: packets moved per attempt, not per success.
    layer(
        "net.rx_pkts_per_syscall",
        ratio(
            num(snap, "transport.rx_packets"),
            num(snap, "transport.rx_syscalls"),
        ),
    );
    layer(
        "net.tx_pkts_per_syscall",
        ratio(
            num(snap, "transport.tx_packets"),
            num(snap, "transport.tx_syscalls"),
        ),
    );
    layer("net.pool_hit_rate", num(snap, "pool.hit_rate"));
    layer("net.pool_steals", num(snap, "pool.steals"));
    layer("net.tx_dropped", num(snap, "transport.tx_dropped"));
    layer(
        "net.tx_copied_bytes",
        num(snap, "transport.tx_copied_bytes"),
    );
    let (hits, misses) = (num(snap, "store.get_hits"), num(snap, "store.get_misses"));
    layer("kv.get_hit_rate", ratio(hits, hits + misses));
    layer(
        "kv.get_retries_per_get",
        ratio(num(snap, "store.get_retries"), hits + misses),
    );
    layer(
        "kv.evictions_per_put",
        ratio(num(snap, "store.evictions"), num(snap, "store.puts")),
    );
    layer(
        "kv.evicted_bytes_per_victim",
        ratio(
            num(snap, "store.evicted_bytes"),
            num(snap, "store.evictions"),
        ),
    );
    layer("kv.put_failures", num(snap, "store.put_failures"));
    layer("kv.admission_rejects", num(snap, "store.admission_rejects"));
    layer(
        "kv.accounting_warnings",
        num(snap, "store.accounting_warnings"),
    );
    layer("kv.mempool_occupancy", num(snap, "mempool.occupancy"));
    layer(
        "kv.mempool_reuse_rate",
        ratio(num(snap, "mempool.reuses"), num(snap, "mempool.allocs")),
    );
    layer("client.small_p90_us", over_windows(false, 0.90));
    layer("client.small_p99_us", over_windows(false, 0.99));
    layer(
        "client.small_p999_us",
        us(loaded.quantile_pooled(false, 0.999)),
    );
    layer(
        "client.unloaded_large_p50_us",
        us(unloaded.quantile_pooled(true, 0.5).or(Some(0.0))),
    );
    layer(
        "client.tx_pkts_per_syscall",
        ratio(last.io.tx_packets as f64, last.io.tx_syscalls as f64),
    );
    layer(
        "client.rx_pkts_per_poll",
        ratio(last.io.rx_packets as f64, last.io.rx_syscalls as f64),
    );
    layer(
        "client.reply_copied_bytes_per_op",
        ratio(last.reply_copied_bytes as f64, last.completed as f64),
    );
    layer(
        "client.loop_gap_p99_us",
        loop_gap.percentile_us(99.0).unwrap_or(0.0),
    );
    layer(
        "client.loop_gap_max_ms",
        instances
            .iter()
            .map(|i| i.loaded.loop_gap_max_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e6,
    );
    layer("client.failed_frac", ratio(failed as f64, attempted as f64));
    layer(
        "host.server_cpu_us_per_op",
        ratio(sum(|i| i.cpu_s) * 1e6, loaded.total() as f64),
    );
    layer("host.steal_frac", loaded_steal);
    layer(
        "host.server_invol_ctxsw_per_s",
        ratio(sum(|i| i.ctxsw), loaded_wall_s),
    );

    Ok(LiveResult {
        end_to_end,
        layers,
        samples: vec![
            ("loaded", loaded.total()),
            ("loaded_small", loaded.count(false)),
            ("loaded_large", loaded.count(true)),
            ("unloaded_small", unloaded.count(false)),
            ("unloaded_large", unloaded.count(true)),
            ("setups", instances.len() as u64),
        ],
        phases,
        server_args: last.server_args.clone(),
        attempted,
        failed,
        problems,
        noisy: loaded_steal > NOISY_STEAL,
    })
}
