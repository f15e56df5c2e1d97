//! `minos-figures`: rate sweeps reproducing the paper's figures over
//! real UDP.
//!
//! Runs each requested queue discipline of the Minos server (size-aware
//! sharding vs the HKH and SHO baselines by default) in-process over
//! SO_REUSEPORT UDP loopback sockets and sweeps the offered rate ladder,
//! printing one JSON sweep point per line to stdout as it lands (see `minos::figures::SweepPoint` for the
//! schema). `--out` additionally writes the whole sweep as a JSON array
//! — the format of the committed `BENCH_fig_*.json` files.
//!
//! Latency is measured from each request's *scheduled* open-loop
//! arrival (each point is one [`minos::driver`] run), so points past
//! the saturation knee report the queueing delay overload causes rather
//! than coordinated-omission-filtered service times. `--help` lists the
//! flags.

use minos::core::client::RetryPolicy;
use minos::core::dispatch::DisciplineKind;
use minos::figures::{run_sweep_resuming, SweepConfig, SweepPoint, CHURN_EVICTIONS};
use minos::flag_value as value;
use minos::net::FaultProfile;
use minos::obs::JsonValue;
use minos::workload::{profiles, DEFAULT_PROFILE};
use std::time::Duration;

const USAGE: &str = "minos-figures: rate sweeps (size-aware vs HKH/SHO) over UDP loopback

USAGE:
    minos-figures --rates R1,R2,... [OPTIONS]

OPTIONS:
    --rates R1,R2,...     offered rates (req/s) swept per discipline, in order
    --disciplines LIST    comma list of queue disciplines to sweep, one
                          server instance each ({disciplines};
                          default size-aware,hkh,sho)
    --cores N             server cores = UDP queues per server (default 2)
    --clients N           client threads per point (default 1)
    --duration SECS       measured window per point (default 2)
    --keys N              dataset keys (default 2000)
    --large-keys N        large keys in the dataset (default 8)
    --profile NAME        'default' (95:5 GET:PUT) or 'write' (50:50)
    --p-large FRAC        override the large-request fraction (0..1)
    --s-large BYTES       override the maximum large item size (the
                          paper's s_L; Figure 7 sweeps it)
    --seed S              RNG seed (default 42)
    --base-port P         queue-0 port of the first server instance
                          (default 9500); instance i of the
                          (discipline x eviction) enumeration binds
                          cores ports from P + i*cores
    --churn-mem BYTES     churn mode: replace the paper profile with the
                          churn workload (zipfian reuse of 64 B to 4 KiB
                          values, --keys population) against a
                          BYTES-sized mempool that the working set
                          outgrows, one server instance per eviction
                          policy (clock, size-aware-clock)
    --fault-profile SPEC  chaos mode: wrap every measured client's
                          transport in a deterministic fault injector,
                          e.g. 'drop=0.01,reorder=8,seed=42' (the
                          preload stays clean). Enables client retries
                          (25 ms x8 unless --retry-timeout-ms overrides)
                          so injected drops surface as retries and
                          explicit timed_out loss; the spec is recorded
                          in each point and in its --resume key
    --hedge               hedged requests on the measured clients: a
                          small request unanswered past the adaptive
                          hedge delay is duplicated to another RX
                          queue, first reply wins (needs --cores >= 2)
    --retry-timeout-ms MS client retry timeout (default: off; 25 with
                          --fault-profile)
    --max-retries N       client retry budget (default 8)
    --out FILE            also write the sweep as a JSON array to FILE
    --resume              skip (discipline, eviction, fault,
                          hedging, rate) points already present in --out
                          and carry them into the new file; points from
                          outside this invocation's enumeration survive
                          verbatim, so an interrupted sweep continues
                          where it stopped and chained variant runs
                          (e.g. hedging off, then on) accumulate into
                          one figure
    -h, --help            this help
";

/// [`USAGE`] with the discipline names filled in from
/// [`DisciplineKind::ALL`].
fn usage() -> String {
    USAGE.replace("{disciplines}", &discipline_names())
}

fn discipline_names() -> String {
    DisciplineKind::ALL.map(DisciplineKind::name).join(",")
}

fn parse() -> Result<(SweepConfig, Option<String>, bool), String> {
    let mut cfg = SweepConfig::loopback(9500, Vec::new());
    let mut out = None;
    let mut resume = false;
    let mut p_large_override: Option<f64> = None;
    let mut s_large_override: Option<u64> = None;
    let mut retry_timeout_ms: Option<u64> = None;
    let mut max_retries = 8u32;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "--rates" => {
                cfg.rates = value::<String>(flag, it.next())?
                    .split(',')
                    .map(|r| r.trim().parse::<f64>().map_err(|e| format!("--rates: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--disciplines" => {
                cfg.disciplines = value::<String>(flag, it.next())?
                    .split(',')
                    .map(|d| {
                        DisciplineKind::from_name(d.trim()).ok_or_else(|| {
                            format!("unknown discipline: {d} ({})", discipline_names())
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--cores" => cfg.cores = value(flag, it.next())?,
            "--clients" => cfg.clients = value(flag, it.next())?,
            "--duration" => cfg.duration = Duration::from_secs_f64(value(flag, it.next())?),
            "--keys" => cfg.keys = value(flag, it.next())?,
            "--large-keys" => cfg.large_keys = value(flag, it.next())?,
            "--profile" => {
                cfg.profile = match value::<String>(flag, it.next())?.as_str() {
                    "default" => DEFAULT_PROFILE,
                    "write" => profiles::WRITE_INTENSIVE_PROFILE,
                    other => return Err(format!("unknown profile: {other}")),
                }
            }
            "--p-large" => p_large_override = Some(value(flag, it.next())?),
            "--s-large" => s_large_override = Some(value(flag, it.next())?),
            "--seed" => cfg.seed = value(flag, it.next())?,
            "--base-port" => cfg.base_port = value(flag, it.next())?,
            "--churn-mem" => cfg.churn = Some(value(flag, it.next())?),
            "--fault-profile" => {
                let spec: String = value(flag, it.next())?;
                FaultProfile::parse(&spec).map_err(|e| format!("--fault-profile: {e}"))?;
                cfg.fault_profile = Some(spec);
            }
            "--hedge" => cfg.hedge = true,
            "--retry-timeout-ms" => retry_timeout_ms = Some(value(flag, it.next())?),
            "--max-retries" => max_retries = value(flag, it.next())?,
            "--out" => out = Some(value(flag, it.next())?),
            "--resume" => resume = true,
            "-h" | "--help" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if cfg.rates.is_empty() {
        return Err("--rates is required (comma-separated req/s ladder)".into());
    }
    if resume && out.is_none() {
        return Err("--resume needs --out (the file holding the finished points)".into());
    }
    if let Some(p) = p_large_override {
        if !(0.0..=1.0).contains(&p) {
            return Err("--p-large must be in [0, 1]".into());
        }
        cfg.profile.p_large = p;
    }
    if let Some(s) = s_large_override {
        if s == 0 {
            return Err("--s-large must be positive".into());
        }
        cfg.profile.large_max = s;
    }
    if cfg.hedge && cfg.cores < 2 {
        return Err("--hedge needs --cores >= 2 (the hedge copy goes to another queue)".into());
    }
    // Under fault injection retries default on: without them every
    // injected drop voids the point's zero-loss verdict instead of
    // surfacing as a retransmit (or an explicit timed_out loss).
    let retry_ms = retry_timeout_ms.or(cfg.fault_profile.is_some().then_some(25));
    if let Some(ms) = retry_ms {
        if ms == 0 {
            return Err("--retry-timeout-ms must be positive".into());
        }
        cfg.retry = Some(RetryPolicy::new(Duration::from_millis(ms), max_retries));
    }
    Ok((cfg, out, resume))
}

/// Reads the finished points out of an interrupted sweep's `--out`
/// file. A missing file is an empty sweep (first run with `--resume` is
/// legal); an unparseable one is an error, not silently re-swept.
fn read_existing(path: &str) -> Result<Vec<SweepPoint>, String> {
    let doc = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let v = JsonValue::parse(&doc).map_err(|e| format!("{path}: {e}"))?;
    let arr = v
        .as_array()
        .ok_or_else(|| format!("{path}: expected a JSON array of sweep points"))?;
    arr.iter()
        .map(|p| SweepPoint::parse(p).ok_or_else(|| format!("{path}: malformed sweep point")))
        .collect()
}

fn main() {
    let (cfg, out, resume) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    let existing = if resume {
        match read_existing(out.as_deref().expect("parse enforced --out")) {
            Ok(points) => {
                eprintln!(
                    "minos-figures: resuming past {} finished points",
                    points.len()
                );
                points
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    } else {
        Vec::new()
    };
    eprintln!(
        "minos-figures: {} disciplines x {} rates, {} cores, {} clients, {:?}/point, {} keys ({} large)",
        cfg.disciplines.len(),
        cfg.rates.len(),
        cfg.cores,
        cfg.clients,
        cfg.duration,
        cfg.keys,
        cfg.large_keys,
    );
    if let Some(spec) = &cfg.fault_profile {
        eprintln!(
            "minos-figures: chaos mode — fault profile '{spec}', hedging {}, retry {:?}",
            if cfg.hedge { "on" } else { "off" },
            cfg.retry.map(|r| r.timeout),
        );
    }
    if let Some(mempool_bytes) = cfg.churn {
        eprintln!(
            "minos-figures: churn mode — {mempool_bytes} byte mempool, evictions {}",
            CHURN_EVICTIONS.map(|e| e.name()).join(","),
        );
    }

    let points = run_sweep_resuming(&cfg, &existing, |point| {
        // Stream each point as it lands, JSONL: the knee is visible
        // while the sweep still runs.
        println!("{}", point.to_json());
    });

    if let Some(path) = out {
        // Union semantics on write: finished points from the existing
        // file that this invocation did not enumerate (a different
        // hedging mode, fault profile, or discipline set) are carried
        // through verbatim, existing-first. That is what lets a figure
        // accumulate across chained --resume invocations — the
        // committed BENCH_fig_hedging.json protocol runs hedging off,
        // then on, into the same file.
        let fresh: std::collections::HashSet<String> = points.iter().map(|p| p.key()).collect();
        let carried: Vec<&SweepPoint> = existing
            .iter()
            .filter(|p| !fresh.contains(&p.key()))
            .collect();
        let body: Vec<String> = carried
            .iter()
            .copied()
            .chain(points.iter())
            .map(|p| format!("  {}", p.to_json()))
            .collect();
        let doc = format!("[\n{}\n]\n", body.join(",\n"));
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "minos-figures: wrote {} points to {path} ({} carried from outside this sweep)",
            body.len(),
            carried.len()
        );
    }
}
