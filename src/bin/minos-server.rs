//! `minos-server`: the Minos store serving real UDP traffic.
//!
//! One `SO_REUSEPORT` UDP socket per core: core `q` listens on
//! `base_port + q`, so clients address a specific RX queue by
//! destination port (the paper's §3 hardware-dispatch model with the
//! kernel's port demux standing in for the NIC). `--help` lists the
//! flags.
//!
//! Runs until Ctrl-C (or `--duration`), then shuts down gracefully:
//! stops accepting nothing new is needed — UDP has no connections — and
//! drains in-flight handoffs before joining the core threads.
//!
//! `--json` prints the final registry snapshot to stdout as one JSON
//! line plus `drained` (all human chatter moves to stderr): every metric
//! once, under its canonical name in `metrics` (`docs/METRICS.md`), which
//! is what the CI gates (`tools/gate.py`) read.
//!
//! `--stats-interval-ms N` additionally emits a live telemetry timeline:
//! one JSON line per interval with every registered metric — including
//! the per-core per-class queue-wait and service-time histograms — to
//! stderr, or to `--stats-file PATH`. `SIGUSR1` forces an out-of-band
//! snapshot line at any time.

use minos::core::dispatch::DisciplineKind;
use minos::core::server::{MinosServer, ServerConfig};
use minos::flag_value as value;
use minos::kv::evict::{HIGH_WATERMARK, LOW_WATERMARK};
use minos::kv::{CapacityConfig, EvictionPolicy};
use minos::net::{FaultProfile, FaultTransport, Transport, UdpConfig, UdpTransport};
use std::io::Write;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    cores: usize,
    bind: Ipv4Addr,
    base_port: u16,
    items: usize,
    mempool_bytes: usize,
    eviction: EvictionPolicy,
    discipline: DisciplineKind,
    steal: bool,
    shed_watermark: usize,
    fault: FaultProfile,
    /// The `--fault-profile` spec as given.
    fault_spec: Option<String>,
    duration: Option<Duration>,
    sockbuf: usize,
    pin_base: Option<usize>,
    stats_interval: Option<Duration>,
    stats_file: Option<String>,
    json: bool,
}

/// Where `--stats-interval-ms` snapshot lines go: a file when
/// `--stats-file` is given, stderr otherwise (stdout is reserved for the
/// `--json` exit report).
enum StatsSink {
    Stderr,
    File(std::fs::File),
}

impl StatsSink {
    fn open(args: &Args) -> Result<StatsSink, String> {
        match &args.stats_file {
            None => Ok(StatsSink::Stderr),
            Some(path) => std::fs::File::create(path)
                .map(StatsSink::File)
                .map_err(|e| format!("--stats-file {path}: {e}")),
        }
    }

    fn emit(&mut self, line: &str) {
        let res = match self {
            StatsSink::Stderr => writeln!(std::io::stderr().lock(), "{line}"),
            StatsSink::File(f) => writeln!(f, "{line}").and_then(|()| f.flush()),
        };
        if let Err(e) = res {
            eprintln!("minos-server: stats write failed: {e}");
        }
    }
}

use minos::human;

const USAGE: &str = "minos-server: size-aware sharded KV store over real UDP

USAGE:
    minos-server [OPTIONS]

OPTIONS:
    --cores N          server cores / RX queues (default 4)
    --bind IP          IPv4 address to bind (default 127.0.0.1)
    --port BASE        base UDP port; core q listens on BASE+q (default 9000)
    --items N          store capacity in items (default 1000000)
    --mem BYTES        value-memory budget (default 2147483648 = 2 GiB)
    --eviction-policy P
                       capacity tiering when the dataset outgrows --mem:
                       'none' (default: over-capacity PUTs get
                       OutOfMemory), 'clock' (second-chance eviction to
                       the low watermark), or 'size-aware-clock' (clock,
                       preferring the largest unreferenced victim)
    --discipline NAME  queue discipline placing decoded requests on
                       cores: {disciplines} (default size-aware, the
                       paper; hkh and sho are its baselines, sho with
                       one dispatch core)
    --steal            ZygOS-style work stealing: an idle core pops one
                       request from the longest peer software queue,
                       or under hkh (HKH+WS) a burst from a peer's RX
                       queue
    --shed-watermark N overload valve: when a placement targets a
                       software queue already holding >= N requests,
                       *large* requests are answered Overloaded instead
                       of enqueued (small-class tail protection under
                       overload; counted in dispatch.sheds). 0 = off
                       (default)
    --fault-profile SPEC
                       wrap the transport in a deterministic fault
                       injector, e.g. 'drop=0.01,dup=0.001,reorder=8,
                       delay_us=200,seed=42'; prefix keys with rx. or
                       tx. to scope a direction, add blackhole=Q to
                       swallow one RX queue. Injected faults are
                       counted under fault.*
    --duration SECS    exit after SECS instead of waiting for Ctrl-C
    --sockbuf BYTES    socket send/receive buffer per queue (default 4 MiB)
    --pin BASECPU      pin core q's polling thread to cpu BASECPU+q
                       (sched_setaffinity; best-effort)
    --stats-interval-ms N
                       emit a JSON snapshot line of every metric
                       (counters, gauges, per-core per-class queue-wait /
                       service-time histograms) every N ms; 0 disables
                       (default 0). SIGUSR1 forces a snapshot any time.
    --stats-file PATH  write snapshot lines to PATH instead of stderr
    --json             print a machine-readable JSON exit report to
                       stdout (human output moves to stderr)
    -h, --help         this help
";

/// [`USAGE`] with the discipline names filled in from
/// [`DisciplineKind::ALL`].
fn usage() -> String {
    USAGE.replace("{disciplines}", &discipline_names(", "))
}

fn discipline_names(sep: &str) -> String {
    DisciplineKind::ALL.map(DisciplineKind::name).join(sep)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cores: 4,
        bind: Ipv4Addr::LOCALHOST,
        base_port: 9000,
        items: 1_000_000,
        mempool_bytes: 2 << 30,
        eviction: EvictionPolicy::None,
        discipline: DisciplineKind::SizeAware,
        steal: false,
        shed_watermark: 0,
        fault: FaultProfile::default(),
        fault_spec: None,
        duration: None,
        sockbuf: 4 << 20,
        pin_base: None,
        stats_interval: None,
        stats_file: None,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "--cores" => args.cores = value(flag, it.next())?,
            "--bind" => args.bind = value(flag, it.next())?,
            "--port" => args.base_port = value(flag, it.next())?,
            "--items" => args.items = value(flag, it.next())?,
            "--mem" => args.mempool_bytes = value(flag, it.next())?,
            "--eviction-policy" => {
                let v: String = value(flag, it.next())?;
                args.eviction = EvictionPolicy::from_name(&v).ok_or_else(|| {
                    format!("unknown eviction policy: {v} (none|clock|size-aware-clock)")
                })?;
            }
            "--discipline" => {
                let v: String = value(flag, it.next())?;
                args.discipline = DisciplineKind::from_name(&v).ok_or_else(|| {
                    format!("unknown discipline: {v} ({})", discipline_names("|"))
                })?;
            }
            "--steal" => args.steal = true,
            "--shed-watermark" => args.shed_watermark = value(flag, it.next())?,
            "--fault-profile" => {
                let spec: String = value(flag, it.next())?;
                args.fault = FaultProfile::parse(&spec).map_err(|e| format!("{flag}: {e}"))?;
                args.fault_spec = Some(spec);
            }
            "--duration" => args.duration = Some(Duration::from_secs_f64(value(flag, it.next())?)),
            "--sockbuf" => args.sockbuf = value(flag, it.next())?,
            "--pin" => args.pin_base = Some(value(flag, it.next())?),
            "--stats-interval-ms" => {
                let ms: u64 = value(flag, it.next())?;
                args.stats_interval = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--stats-file" => args.stats_file = Some(value(flag, it.next())?),
            "--json" => args.json = true,
            "-h" | "--help" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.cores == 0 || args.cores > u16::MAX as usize {
        return Err("--cores must be in 1..65536".into());
    }
    if args.base_port.checked_add(args.cores as u16 - 1).is_none() {
        return Err(format!(
            "--port {} + {} cores exceeds 65535",
            args.base_port, args.cores
        ));
    }
    Ok(args)
}

/// Signal handling without external crates: handlers flip atomics the
/// main loop polls. SIGINT/SIGTERM request shutdown; SIGUSR1 requests an
/// out-of-band telemetry snapshot.
mod signal {
    use super::{AtomicBool, Ordering};

    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);
    pub static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);

    pub fn install() {
        extern "C" fn on_sigint(_sig: i32) {
            INTERRUPTED.store(true, Ordering::SeqCst);
        }
        extern "C" fn on_sigusr1(_sig: i32) {
            DUMP_REQUESTED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        const SIGUSR1: i32 = 10;
        unsafe {
            signal(SIGINT, on_sigint);
            signal(SIGTERM, on_sigint);
            signal(SIGUSR1, on_sigusr1);
        }
    }

    /// Consumes a pending SIGUSR1 dump request, if any.
    pub fn take_dump_request() -> bool {
        DUMP_REQUESTED.swap(false, Ordering::SeqCst)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };

    let transport = match UdpTransport::bind(UdpConfig {
        ip: args.bind,
        socket_buffer_bytes: args.sockbuf,
        ..UdpConfig::loopback(args.base_port, args.cores as u16)
    }) {
        Ok(t) => Arc::new(t),
        Err(e) => {
            eprintln!(
                "error: cannot bind {}:{}..{}: {e}",
                args.bind,
                args.base_port,
                args.base_port + args.cores as u16 - 1
            );
            std::process::exit(1);
        }
    };

    let mut config = ServerConfig::for_test(args.cores, args.items);
    config.minos.discipline = args.discipline;
    config.minos.steal = args.steal;
    config.minos.shed_watermark = args.shed_watermark;
    config.minos.epoch_ns = 1_000_000_000; // the paper's 1 s epochs
    config.store =
        minos::kv::StoreConfig::for_items(args.cores * 4, args.items, args.mempool_bytes);
    config.store.capacity = CapacityConfig {
        policy: args.eviction,
        ..CapacityConfig::default()
    };
    config.pin_cpus = args
        .pin_base
        .map(|base| (base..base + args.cores).collect());
    if let Err(e) = config.minos.validate() {
        eprintln!("error: {e}\n\n{}", usage());
        std::process::exit(2);
    }

    human!(
        args,
        "minos-server: {} cores on {}:{}..{} ({} discipline{}, threshold {:?}, {} item slots, syscall batch {}{})",
        args.cores,
        args.bind,
        args.base_port,
        args.base_port + args.cores as u16 - 1,
        args.discipline.name(),
        if args.steal { " + steal" } else { "" },
        config.minos.threshold_mode,
        args.items,
        minos::net::BATCH,
        match args.pin_base {
            Some(base) => format!(", pinned to cpus {}..{}", base, base + args.cores),
            None => String::new(),
        },
    );
    if args.eviction != EvictionPolicy::None {
        human!(
            args,
            "capacity tiering: {} eviction, watermarks {:.0}%/{:.0}% of {} bytes",
            args.eviction.name(),
            HIGH_WATERMARK * 100.0,
            LOW_WATERMARK * 100.0,
            args.mempool_bytes,
        );
    }
    if args.shed_watermark > 0 {
        human!(
            args,
            "overload shedding: large requests answered Overloaded past {} queued per core",
            args.shed_watermark,
        );
    }
    if let Some(spec) = &args.fault_spec {
        human!(args, "fault injection: {spec}");
    }
    human!(args, "press Ctrl-C to drain and exit");

    let mut stats_sink = match StatsSink::open(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    signal::install();
    // The server always runs behind the fault layer; with the default
    // (no-fault) profile it is a pure passthrough, and with
    // `--fault-profile` the injected faults surface as `fault.*` in the
    // registry via the transport collector.
    let faulted = Arc::new(FaultTransport::new(Arc::clone(&transport), args.fault));
    let mut server = MinosServer::start_with_transport(config, faulted);
    let registry = server.registry();

    let started = Instant::now();
    let mut last_report = Instant::now();
    let mut last_stats = transport.stats();
    let mut next_snapshot = args.stats_interval.map(|iv| started + iv);
    loop {
        if signal::INTERRUPTED.load(Ordering::SeqCst) {
            human!(
                args,
                "\nminos-server: interrupt — draining in-flight requests"
            );
            break;
        }
        if let Some(d) = args.duration {
            if started.elapsed() >= d {
                human!(args, "minos-server: duration elapsed — draining");
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
        let now = Instant::now();
        let periodic_due = next_snapshot.map(|at| now >= at).unwrap_or(false);
        if periodic_due || signal::take_dump_request() {
            stats_sink.emit(&registry.snapshot().to_json_line());
            if periodic_due {
                // Fixed cadence from the start instant: a slow write
                // shifts one sample, not the whole timeline.
                let iv = args.stats_interval.expect("periodic_due implies interval");
                let mut at = next_snapshot.expect("periodic_due implies deadline");
                while at <= now {
                    at += iv;
                }
                next_snapshot = Some(at);
            }
        }
        if last_report.elapsed() >= Duration::from_secs(5) {
            let s = transport.stats();
            let secs = last_report.elapsed().as_secs_f64();
            human!(
                args,
                "rx {:.0}/s tx {:.0}/s (totals: rx {} tx {} dropped {}; epochs {})",
                (s.rx_packets - last_stats.rx_packets) as f64 / secs,
                (s.tx_packets - last_stats.tx_packets) as f64 / secs,
                s.rx_packets,
                s.tx_packets,
                s.tx_dropped,
                registry.counter("engine.epochs").get(),
            );
            last_stats = s;
            last_report = Instant::now();
        }
    }

    // Graceful shutdown: in-flight handoffs finish (their replies go
    // out) before the polling threads stop.
    let drained = server.drain(Duration::from_secs(5));
    server.shutdown();
    // Final post-drain snapshot: closes the timeline (so the last line
    // of a `--stats-file` is the authoritative end state — this is what
    // `minos-loadgen --server-stats` merges) and feeds both exit reports.
    let snap = registry.snapshot();
    let line = snap.to_json_line();
    if args.stats_interval.is_some() {
        stats_sink.emit(&line);
    }
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let g = |name: &str| snap.gauge(name).unwrap_or(0.0);
    human!(
        args,
        "minos-server: {} — rx {} packets, tx {} packets, {} tx drops, {} epochs",
        if drained { "drained" } else { "drain timeout" },
        c("transport.rx_packets"),
        c("transport.tx_packets"),
        c("transport.tx_dropped"),
        c("engine.epochs"),
    );
    human!(
        args,
        "syscall batching: recvmmsg/sendmmsg — {} rx syscalls for {} packets, {} tx syscalls for {} packets",
        c("transport.rx_syscalls"),
        c("transport.rx_packets"),
        c("transport.tx_syscalls"),
        c("transport.tx_packets"),
    );
    human!(
        args,
        "segmentation offload: {} — {} packets received in {} trains, {} sent in {}",
        if g("transport.offload") != 0.0 {
            "on"
        } else {
            "off"
        },
        c("transport.rx_train_packets"),
        c("transport.rx_trains"),
        c("transport.tx_train_packets"),
        c("transport.tx_trains"),
    );
    human!(
        args,
        "rx buffer pool: {} hits / {} misses ({:.2}% hit rate), {} outstanding",
        c("pool.hits"),
        c("pool.misses"),
        g("pool.hit_rate") * 100.0,
        g("pool.outstanding"),
    );
    let copied = c("transport.tx_copied_bytes");
    human!(
        args,
        "zero-copy tx: {copied} value bytes copied on the reply path{}",
        if copied == 0 {
            " (scatter-gather end to end)"
        } else {
            " — gather fallback engaged"
        },
    );
    human!(
        args,
        "one-copy ingest: {} value bytes copied wire -> mempool over {} puts; {} stale partial reassemblies evicted",
        c("ingest.put_copied_bytes"),
        c("store.puts"),
        c("ingest.reassembly_evictions"),
    );

    if args.json {
        // The final snapshot in the `--stats-file` line format (so
        // `Snapshot::parse_json_line` reads it), plus the drain verdict.
        println!("{{\"drained\":{drained},{}", &line[1..]);
    }
}
