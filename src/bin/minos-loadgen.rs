//! `minos-loadgen`: open-loop load generator speaking real UDP to a
//! `minos-server`.
//!
//! Implements the paper's measurement methodology (§5.3–5.4) through
//! [`minos::driver`]: requests are injected open-loop at a configured
//! rate with exponential inter-arrival gaps, GETs target a uniformly
//! random RX queue while PUTs are keyhash-routed, send timestamps are
//! echoed by the server, and the run reports end-to-end latency
//! percentiles together with a strict zero-loss verdict ("we only report
//! performance values corresponding to scenarios in which the packet
//! loss rate is equal to 0").
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
//! a server logging to the same console. `--help` lists the flags.

use minos::core::client::{ClientTotals, HedgePolicy, RetryPolicy};
use minos::driver::{quantiles_json, JsonObj, RunConfig, RunReport, RunSummary, Workload};
use minos::net::{FaultProfile, UdpIoStats};
use minos::obs::Snapshot;
use minos::workload::{ChurnConfig, ChurnGenerator, Dataset, Profile, DEFAULT_PROFILE};
use minos::{flag_value as value, human};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::{Duration, Instant};

struct Args {
    /// The open-loop run: target, clients, rate, policies, sockets.
    run: RunConfig,
    profile: Profile,
    keys: u64,
    large_keys: u64,
    churn: Option<ChurnConfig>,
    /// The `--fault-profile` spec as given (the summary's label).
    fault_spec: String,
    preload: bool,
    server_stats: Option<String>,
    json: bool,
}

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
    --churn                churn mode: a zipfian-reuse working set of
                           64 B to 4 KiB values meant to outgrow the
                           server's mempool (pair with a small server
                           --mem and an --eviction-policy). Replaces the
                           paper profile; --keys sets the population,
                           the profile's GET ratio and zipf skew still
                           apply; no preload (the run builds its own
                           working set)
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
                           observed service latency, within 0.5-100 ms;
                           100 ms until enough samples) is duplicated to
                           another RX queue; first reply wins, the
                           loser is counted in wasted_replies. Hedges
                           never touch the open-loop schedule clock
    --fault-profile SPEC   wrap each measured client's transport in a
                           deterministic fault injector, e.g.
                           'drop=0.01,dup=0.001,reorder=8,seed=42'
                           (rx./tx. prefixes scope a direction). The
                           preload path stays clean; injected faults
                           are counted under fault.* in \"metrics\"
    --pin BASECPU          pin client thread c to cpu BASECPU+c
                           (sched_setaffinity; best-effort)
    --sockbuf BYTES        client socket buffer size (default 4 MiB)
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
        run: RunConfig::new(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 9000), 0),
        profile: DEFAULT_PROFILE,
        keys: 100_000,
        large_keys: 100,
        churn: None,
        fault_spec: minos::driver::NO_FAULTS.into(),
        preload: true,
        server_stats: None,
        json: false,
    };
    let run = &mut args.run;
    let mut retry_timeout_ms = 0u64;
    let mut max_retries = 8u32;
    let mut hedge = false;
    let mut p_large_override: Option<f64> = None;
    let mut s_large_override: Option<u64> = None;
    let mut churn = false;
    let mut churn_ttl_ms = 0u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "--target" => {
                let v: String = value(flag, it.next())?;
                run.target = v
                    .parse()
                    .map_err(|e| format!("--target must be IP:PORT, got {v}: {e}"))?;
            }
            "--queues" => run.queues = value(flag, it.next())?,
            "--clients" => run.clients = value(flag, it.next())?,
            "--rate" => run.rate = value(flag, it.next())?,
            "--duration" => run.duration = Duration::from_secs_f64(value(flag, it.next())?),
            "--profile" => {
                args.profile = match value::<String>(flag, it.next())?.as_str() {
                    "default" => DEFAULT_PROFILE,
                    "write" => minos::workload::profiles::WRITE_INTENSIVE_PROFILE,
                    other => return Err(format!("unknown profile: {other}")),
                }
            }
            "--p-large" => p_large_override = Some(value(flag, it.next())?),
            "--s-large" => s_large_override = Some(value(flag, it.next())?),
            "--keys" => args.keys = value(flag, it.next())?,
            "--large-keys" => args.large_keys = value(flag, it.next())?,
            "--seed" => run.seed = value(flag, it.next())?,
            "--churn" => churn = true,
            "--churn-ttl-ms" => churn_ttl_ms = value(flag, it.next())?,
            "--no-preload" => args.preload = false,
            "--retry-timeout-ms" => retry_timeout_ms = value(flag, it.next())?,
            "--max-retries" => max_retries = value(flag, it.next())?,
            "--hedge" => hedge = true,
            "--fault-profile" => {
                let spec: String = value(flag, it.next())?;
                run.fault = Some(FaultProfile::parse(&spec).map_err(|e| format!("{flag}: {e}"))?);
                args.fault_spec = spec;
            }
            "--pin" => run.pin_base = Some(value(flag, it.next())?),
            "--sockbuf" => run.socket_buffer_bytes = value(flag, it.next())?,
            "--server-stats" => args.server_stats = Some(value(flag, it.next())?),
            "--json" => args.json = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if run.queues == 0 {
        return Err("--queues is required (match the server's --cores)".into());
    }
    if run.clients == 0 {
        return Err("--clients must be positive".into());
    }
    if run.target.port().checked_add(run.queues - 1).is_none() {
        return Err(format!(
            "--target port {} + {} queues exceeds 65535",
            run.target.port(),
            run.queues
        ));
    }
    if run.rate <= 0.0 {
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
        run.retry = Some(RetryPolicy::new(
            Duration::from_millis(retry_timeout_ms),
            max_retries,
        ));
    }
    if hedge {
        if run.queues < 2 {
            return Err("--hedge needs >= 2 queues (the hedge copy goes to another queue)".into());
        }
        run.hedge = Some(HedgePolicy::default());
    }
    if churn {
        args.churn = Some(ChurnConfig {
            num_keys: args.keys,
            zipf_s: args.profile.zipf_s,
            get_ratio: args.profile.get_ratio,
            ttl_ms: churn_ttl_ms,
            salt: run.seed,
            ..ChurnConfig::default()
        });
        args.preload = false;
    }
    Ok(args)
}

fn bind_failed(e: std::io::Error) -> ! {
    eprintln!("error: cannot bind client socket: {e}");
    std::process::exit(1);
}

/// PUTs every key at its dataset size so GETs hit. A separate client
/// keeps the measured latency histograms clean.
fn preload(args: &Args, dataset: &Dataset) {
    let mut preloader = args.run.preloader().unwrap_or_else(|e| bind_failed(e));
    let t0 = Instant::now();
    if let Err(stalled) = minos::driver::preload(&mut preloader.client, dataset) {
        eprintln!(
            "error: preload lost {} replies after {}s — is the server running with --cores={} at the target address?",
            stalled.outstanding,
            t0.elapsed().as_secs(),
            args.run.queues,
        );
        std::process::exit(1);
    }
    human!(
        args,
        "preload: {} PUTs in {:.2}s ({} errors)",
        dataset.num_keys(),
        t0.elapsed().as_secs_f64(),
        preloader.client.totals().errors,
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
    let run = &args.run;

    human!(
        args,
        "minos-loadgen: target {}+{}q, {} clients x {:.0} ops/s for {:?}, {} keys ({} large), profile p_L={:.4}% GET={:.0}%{}",
        run.target,
        run.queues,
        run.clients,
        run.rate / f64::from(run.clients),
        run.duration,
        args.keys,
        args.large_keys,
        args.profile.p_large * 100.0,
        args.profile.get_ratio * 100.0,
        match run.retry {
            Some(p) => format!(
                ", retry {}ms x{}{}",
                p.timeout.as_millis(),
                p.max_retries,
                if run.hedge.is_some() { " + hedging" } else { "" },
            ),
            None if run.hedge.is_some() => ", hedging".into(),
            None => ", zero-loss mode".into(),
        },
    );
    if run.fault.is_some() {
        human!(args, "fault injection:  {}", args.fault_spec);
    }

    let workload = match args.churn {
        Some(cfg) => {
            let churn = ChurnGenerator::new(cfg);
            human!(
                args,
                "churn mode: {} keys x {}..{} bytes = {} byte working set, ttl {} ms, no preload",
                cfg.num_keys,
                cfg.value_min,
                cfg.value_max,
                churn.working_set_bytes(),
                cfg.ttl_ms,
            );
            Workload::Churn(churn)
        }
        None => Workload::etc(args.keys, args.large_keys, args.profile, run.seed),
    };
    if let Some(dataset) = workload.dataset().filter(|_| args.preload) {
        preload(&args, dataset);
    }

    // The measured run: N threads, each open-loop at rate/N.
    let report = minos::driver::run(run, &workload).unwrap_or_else(|e| bind_failed(e));
    let summary = RunSummary::new(run, &args.fault_spec, &report);
    print_report(&args, &report, &summary);
    if args.json {
        println!("{}", json_report(&args, &report, &summary));
    }
    if !summary.zero_loss {
        std::process::exit(3);
    }
}

/// `n` per `d`, with `d` floored at 1.
fn per(n: u64, d: u64) -> f64 {
    n as f64 / d.max(1) as f64
}

/// The human-readable report (the paper's zero-loss + tail
/// methodology).
fn print_report(args: &Args, report: &RunReport, summary: &RunSummary) {
    let (run, t) = (&args.run, &report.total);
    let (sent, flushes, coalesced_max) = (t.scheduled, t.flushes, t.coalesced_max);
    let (puts_sent, put_value_bytes, tx_dropped) = (t.puts_sent, t.put_value_bytes, t.tx_dropped);
    let ClientTotals {
        completed,
        errors,
        retransmits,
        timed_out,
        hedges_sent,
        hedge_wins,
        wasted_replies,
        frames_tx,
        frames_rx,
        ..
    } = t.totals;
    let UdpIoStats {
        tx_packets,
        rx_packets,
        rx_syscalls,
        tx_syscalls,
        pool_hits,
        pool_misses,
        pool_outstanding,
        tx_copied_bytes,
        ..
    } = t.io;
    let (outstanding, warnings) = (summary.outstanding, summary.accounting_warnings);
    let elapsed = t.elapsed.as_secs_f64();
    human!(args, "");
    human!(args, "== minos-loadgen report ==");
    human!(
        args,
        "offered rate:     {:.0} ops/s across {} clients",
        run.rate,
        run.clients
    );
    human!(
        args,
        "achieved:         {:.0} ops/s ({completed} ops in {elapsed:.2}s; max scheduling lag {:?})",
        summary.achieved_rate,
        Duration::from_nanos(t.behind_max_ns),
    );
    human!(
        args,
        "sent/completed:   {sent} / {completed} ({errors} errors)"
    );
    if run.retry.is_some() {
        human!(
            args,
            "retransmits:      {retransmits} ({timed_out} timed out past the retry budget)"
        );
    }
    if run.hedge.is_some() {
        human!(
            args,
            "hedging:          {hedges_sent} hedges sent, {hedge_wins} won, {wasted_replies} wasted replies"
        );
    }
    if run.fault.is_some() {
        let f = &t.fault;
        human!(
            args,
            "fault injection:  {} events (rx: {} dropped, {} dup'd, {} reordered, {} delayed; tx: {} dropped, {} dup'd, {} reordered, {} delayed)",
            f.total(),
            f.rx_dropped,
            f.rx_duplicated,
            f.rx_reordered,
            f.rx_delayed,
            f.tx_dropped,
            f.tx_duplicated,
            f.tx_reordered,
            f.tx_delayed,
        );
    }
    if warnings > 0 {
        human!(
            args,
            "accounting:       {warnings} WARNINGS — counters and tables disagree, treat this run as suspect"
        );
    }
    if run.clients > 1 {
        for (c, r) in report.clients.iter().enumerate() {
            let (sent, done, lost) = (r.scheduled, r.totals.completed, r.totals.outstanding());
            match r.latency.quantiles() {
                Some(q) => human!(
                    args,
                    "client {c:>3}:       sent {sent} completed {done} p50 {:.1}us p99 {:.1}us p99.9 {:.1}us{}",
                    q.p50_us,
                    q.p99_us,
                    q.p999_us,
                    if lost > 0 { format!(" ({lost} lost)") } else { String::new() },
                ),
                None => human!(
                    args,
                    "client {c:>3}:       sent {sent} completed {done} (no completions)"
                ),
            }
        }
    }
    if let Some(q) = t.latency.quantiles() {
        human!(args, "latency (all):    {q}");
    }
    if let Some(q) = t.service_latency.quantiles() {
        human!(
            args,
            "latency (svc):    {q} (from first transmission; the gap to the line above is scheduling lag)"
        );
    }
    if let Some(q) = t.latency_large.quantiles() {
        human!(args, "latency (large):  {q}");
    } else {
        human!(args, "latency (large):  no large requests completed");
    }
    human!(
        args,
        "client transport: tx {tx_packets} rx {rx_packets} packets carrying {frames_tx} / {frames_rx} frames ({tx_dropped} tx drops); recvmmsg/sendmmsg — {rx_syscalls} rx / {tx_syscalls} tx syscalls",
    );
    human!(
        args,
        "coalescing:       {flushes} send bursts for {sent} requests ({:.2} reqs/burst avg, {coalesced_max} max); {:.2} pkts/tx-syscall",
        per(sent, flushes),
        per(tx_packets, tx_syscalls),
    );
    human!(
        args,
        "rx buffer pool:   {pool_hits} hits / {pool_misses} misses ({:.2}% hit rate), {pool_outstanding} outstanding",
        t.io.pool_hit_rate() * 100.0,
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
    if t.reassembly_evictions > 0 {
        human!(
            args,
            "reassembly:       {} stale partial replies evicted (fragments lost mid-message)",
            t.reassembly_evictions,
        );
    }
    if summary.zero_loss {
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

/// The machine-readable report `--json` prints to stdout: the run's
/// [`RunSummary`] (the schema every `minos-figures` sweep point shares),
/// then every other client counter under `metrics` (the server's names,
/// `docs/METRICS.md`), the churn working set, the merged server snapshot
/// and one entry per client thread. `tests/loadgen_json.rs` pins the
/// top-level keys.
fn json_report(args: &Args, report: &RunReport, summary: &RunSummary) -> String {
    let per_client: Vec<String> = report
        .clients
        .iter()
        .map(|r| {
            JsonObj::new()
                .u64("sent", r.scheduled)
                .u64("completed", r.totals.completed)
                .u64("outstanding", r.totals.outstanding())
                .u64("flushes", r.flushes)
                .u64("coalesced_max", r.coalesced_max)
                .raw("latency_us", &quantiles_json(r.latency.quantiles()))
                .finish()
        })
        .collect();
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
    let metrics = report.snapshot().metrics_json();
    summary
        .write(JsonObj::new())
        .raw("metrics", &metrics)
        .raw("churn", &churn)
        .raw("server_stats", &read_server_stats(args))
        .raw("per_client", &format!("[{}]", per_client.join(",")))
        .finish()
}
