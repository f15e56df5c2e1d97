//! Figure 4: 99th-percentile latency of *large* requests, Minos vs
//! HKH+WS, default workload.
//!
//! Size-aware sharding trades a bounded penalty on the rare large
//! requests for the order-of-magnitude win on the overall p99.

use minos_bench::{banner, by_effort, fmt_us, write_csv};
use minos_sim::{runner, DisciplineKind, RunConfig, SystemConfig};
use minos_workload::DEFAULT_PROFILE;

fn main() {
    banner(
        "Figure 4",
        "p99 latency of large requests: Minos vs HKH+WS",
        "Minos penalizes large requests up to ~2x before saturation \
         (it restricts them to a subset of cores); HKH+WS serves them \
         with all cores and does better on this sub-population",
    );

    let duration = by_effort(0.5, 1.2, 4.0);
    let loads: Vec<f64> = by_effort(
        vec![1.0, 3.0, 4.5, 5.5],
        vec![0.5, 1.5, 2.5, 3.5, 4.5, 5.0, 5.5],
        vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0],
    );

    println!(
        "{:>7} | {:>11} {:>11}   (large-request p99, us)",
        "Mops", "Minos", "HKH+WS"
    );
    let mut rows = Vec::new();
    for &rate in &loads {
        print!("{rate:>7.2} |");
        for system in [
            SystemConfig::paper(DisciplineKind::SizeAware),
            SystemConfig {
                steal: true,
                ..SystemConfig::paper(DisciplineKind::Hkh)
            },
        ] {
            let mut cfg = RunConfig::new(system, DEFAULT_PROFILE, rate);
            cfg.duration_s = duration;
            cfg.warmup_s = duration / 4.0;
            let r = runner::run(&cfg);
            let p99l = r.latency_large.map_or(f64::INFINITY, |q| q.p99_us);
            let p99l = if r.kept_up() { p99l } else { f64::INFINITY };
            print!("   {}", fmt_us(p99l));
            rows.push(format!("{},{:.2},{:.2}", r.system, rate, p99l));
        }
        println!();
    }
    write_csv("fig4_large_reqs", "system,offered_mops,p99_large_us", &rows);
    println!(
        "\nshape check: Minos' column sits above HKH+WS' by a small \
         factor (<= ~2-3x) until both saturate."
    );
}
