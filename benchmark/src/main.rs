//! The repo's benchmark harness. `benchmark/run.sh` builds the root
//! `minos-server` and this binary, then runs it; see `benchmark/README.md`.
//!
//! ```text
//! minos-benchmark --server BIN --root DIR --out DIR
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! minos-benchmark --compare A.json B.json
//! ```
//!
//! With `--workload` it runs that one workload and ends its standard
//! output with one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`): the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Without, it runs every workload and writes
//! `results.json` (or `trace-results.json`) under `--out`.

mod live;
mod metrics;
mod probe;
mod replay;
mod report;
mod server;
mod span;
mod stats;
mod workloads;

use live::{LiveConfig, LiveResult};
use metrics::{MetricDef, Values};
use report::Json;
use std::path::PathBuf;
use workloads::{Workload, WORKLOADS};

/// Seconds measured per workload by a full run: 7.6 s unloaded, 30.4 s
/// loaded.
const FULL_SECONDS: f64 = 38.0;
const QUICK_SECONDS: f64 = 6.0;
/// Set-ups per timed run; their median is `setup_s`.
const SETUPS: usize = 4;
/// Shares of `--seconds` a traced run gives the live phases and the
/// traced replay (the untraced replay repeats the same requests).
const TRACED_LIVE_SHARE: f64 = 0.5;
const TRACED_REPLAY_SHARE: f64 = 0.25;

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
       run.sh --compare A.json B.json";

struct Args {
    server: PathBuf,
    root: PathBuf,
    out: PathBuf,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    compare: Option<(String, String)>,
    /// `MINOS_BENCH_SERVER_ARGS`: extra `minos-server` flags, recorded
    /// in the provenance. Exists for one-off sanity runs only.
    server_args_override: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        server: PathBuf::new(),
        root: PathBuf::from("."),
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        compare: None,
        server_args_override: std::env::var("MINOS_BENCH_SERVER_ARGS").unwrap_or_default(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--server" => args.server = value("--server")?.into(),
            "--root" => args.root = value("--root")?.into(),
            "--out" => args.out = value("--out")?.into(),
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(
                    Workload::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err("--seconds must be at least 1".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--quick" => args.quick = true,
            "--compare" => args.compare = Some((value("--compare")?, value("--compare")?)),
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Measures one workload: the live run and, when traced, the replay,
/// whose per-layer metrics join the live run's in-situ ones.
fn measure(
    args: &Args,
    w: &Workload,
    seconds: f64,
    extra: &[String],
) -> Result<LiveResult, String> {
    let cfg = LiveConfig {
        server_bin: &args.server,
        out_dir: &args.out,
        seed: args.seed,
        seconds: if args.trace {
            seconds * TRACED_LIVE_SHARE
        } else {
            seconds
        },
        // A traced run reports no `setup_s`; a quick run is not comparable.
        setups: if args.trace || args.quick { 1 } else { SETUPS },
        extra_server_args: extra,
    };
    let mut live = live::run(&cfg, w)?;
    if args.trace {
        let replay = replay::run(
            w,
            args.seed,
            seconds * TRACED_REPLAY_SHARE,
            live.end_to_end["unloaded_small_p50_us"],
        )?;
        live.phases.push(live::PhaseInfo {
            name: "replay",
            wall_s: replay.wall_s,
            steal_frac: 0.0,
        });
        let header = Json::obj([
            ("workload", Json::str(w.name)),
            ("provenance", report::provenance(&run_info(args, seconds))),
        ]);
        let path = args.out.join(format!("trace-{}.jsonl", w.name));
        replay
            .recorder
            .write_jsonl(&path, &header.render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        live.layers.extend(replay.layers);
    }
    Ok(live)
}

fn run_info(args: &Args, seconds: f64) -> report::RunInfo<'_> {
    report::RunInfo {
        repo_root: &args.root,
        seed: args.seed,
        seconds,
        quick: args.quick,
        traced: args.trace,
        server_args_override: &args.server_args_override,
    }
}

fn print_metrics(w: &Workload, defs: &[MetricDef], values: &Values, live: &LiveResult) {
    for d in defs {
        if let Some(v) = values.get(&d.name) {
            let n = live.samples_for(&d.name);
            let samples = if n > 0 {
                format!("  (n={n})")
            } else {
                String::new()
            };
            println!(
                "{:<12} {:<34} {v:>16.4} {}{samples}",
                w.name, d.name, d.unit
            );
        }
    }
}

fn print_flags(w: &Workload, live: &LiveResult) {
    for p in &live.problems {
        println!("{:<12} PROBLEM {p}", w.name);
    }
    if live.noisy {
        println!(
            "{:<12} NOISY host.steal_frac above 0.15 in the loaded phase",
            w.name
        );
    }
}

/// The driver's contract: one JSON object as the last line of stdout.
fn result_line(defs: &[MetricDef], values: &Values, live: &LiveResult) -> Result<String, String> {
    metrics::check_complete(defs, values)?;
    let metrics = Json::obj(defs.iter().map(|d| {
        (
            d.name.clone(),
            Json::obj([
                ("value", Json::Num(values[&d.name])),
                ("unit", Json::str(d.unit)),
            ]),
        )
    }));
    Ok(Json::obj([
        ("correct", Json::Bool(live.failed == 0)),
        ("attempted", Json::Int(live.attempted.max(1))),
        ("failed", Json::Int(live.failed)),
        ("metrics", metrics),
    ])
    .render())
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        return Ok(report::compare(a, b)? == 0);
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let extra: Vec<String> = args
        .server_args_override
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let default_seconds = if args.quick {
        QUICK_SECONDS
    } else {
        FULL_SECONDS
    };
    let seconds = args.seconds.unwrap_or(default_seconds);
    let (e2e, layer_defs) = (metrics::end_to_end(), metrics::per_layer());

    if let Some(w) = args.workload {
        let live = measure(args, w, seconds, &extra)?;
        let (defs, values) = if args.trace {
            (&layer_defs, &live.layers)
        } else {
            (&e2e, &live.end_to_end)
        };
        print_metrics(w, defs, values, &live);
        print_flags(w, &live);
        println!("{}", result_line(defs, values, &live)?);
        return Ok(live.failed == 0);
    }

    let mut reports = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        println!("{:<12} {}", w.name, w.why);
        let live = measure(args, w, seconds, &extra)?;
        if args.trace {
            metrics::check_complete(&layer_defs, &live.layers)?;
        } else {
            metrics::check_complete(&e2e, &live.end_to_end)?;
            print_metrics(w, &e2e, &live.end_to_end, &live);
        }
        print_metrics(w, &layer_defs, &live.layers, &live);
        print_flags(w, &live);
        all_correct &= live.failed == 0;
        reports.push((w.name.to_string(), report::workload_report(&live)));
    }
    let doc = report::results(report::provenance(&run_info(args, seconds)), reports);
    let file = if args.trace {
        "trace-results.json"
    } else {
        "results.json"
    };
    let path = args.out.join(file);
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("minos-benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(true) => {}
        // Measured, but something failed or a comparison came out worse.
        Ok(false) => std::process::exit(3),
        Err(e) => {
            eprintln!("minos-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
