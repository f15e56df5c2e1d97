//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Large-core stealing** (§6.1's "alternative design"): an extra
//!    large core that steals small requests one at a time should improve
//!    large-request latency at a small cost to small requests.
//! 2. **Static vs dynamic threshold** (§6.2): pinning the threshold
//!    removes the profiling overhead, recovering HKH-level peak
//!    throughput under the CPU-bound 50:50 mix.
//! 3. **Cost functions** (§3 lists packets, bytes, constant+bytes):
//!    how the allocation differs across them.

use minos_bench::{banner, by_effort, fmt_us, write_csv};
use minos_core::config::{AllocationPolicy, ThresholdMode};
use minos_core::cost::CostFn;
use minos_core::{allocate, ThresholdController};
use minos_sim::{runner, DisciplineKind, RunConfig, SystemConfig};
use minos_stats::SizeHistogram;
use minos_workload::profiles::WRITE_INTENSIVE_PROFILE;
use minos_workload::DEFAULT_PROFILE;

fn main() {
    banner(
        "Ablations",
        "large-core stealing / static threshold / cost functions",
        "stealing trades a little small-request latency for better \
         large-request latency; a static threshold recovers the 50:50 \
         throughput gap; packet cost allocates fewer large cores than \
         byte cost",
    );
    let duration = by_effort(0.5, 1.2, 4.0);

    // --- 1. Large-core stealing ---------------------------------------
    println!("\n[1] AllocationPolicy: Standard vs LargeSteals (default workload)");
    println!(
        "{:>12} {:>7} | {:>10} {:>12}",
        "policy", "Mops", "p99 (us)", "p99 large"
    );
    let mut rows = Vec::new();
    for rate in by_effort(
        vec![3.0],
        vec![2.0, 3.5, 4.5],
        vec![1.0, 2.0, 3.0, 4.0, 5.0],
    ) {
        for (label, policy) in [
            ("standard", AllocationPolicy::Standard),
            ("large-steals", AllocationPolicy::LargeSteals),
        ] {
            let mut cfg = RunConfig::new(
                SystemConfig::paper(DisciplineKind::SizeAware),
                DEFAULT_PROFILE,
                rate,
            );
            cfg.duration_s = duration;
            cfg.warmup_s = duration / 4.0;
            cfg.system.allocation_policy = policy;
            let r = runner::run(&cfg);
            let p99l = r.latency_large.map_or(f64::INFINITY, |q| q.p99_us);
            println!(
                "{label:>12} {rate:>7.2} | {} {}",
                fmt_us(r.p99_us()),
                fmt_us(p99l)
            );
            rows.push(format!("steal,{label},{rate},{:.2},{p99l:.2}", r.p99_us()));
        }
    }

    // --- 2. Static vs dynamic threshold at 50:50 -----------------------
    println!("\n[2] ThresholdMode: Dynamic vs Static (50:50 mix, CPU-bound)");
    println!(
        "{:>10} {:>7} | {:>12} {:>10}",
        "mode", "Mops", "tput (Mops)", "p99 (us)"
    );
    for rate in by_effort(
        vec![6.5],
        vec![6.0, 6.5, 7.0],
        vec![5.5, 6.0, 6.5, 7.0, 7.5],
    ) {
        for (label, mode) in [
            ("dynamic", ThresholdMode::Dynamic),
            ("static", ThresholdMode::Static(1_456)),
        ] {
            let mut cfg = RunConfig::new(
                SystemConfig::paper(DisciplineKind::SizeAware),
                WRITE_INTENSIVE_PROFILE,
                rate,
            );
            cfg.duration_s = duration;
            cfg.warmup_s = duration / 4.0;
            cfg.system.threshold_mode = mode;
            let r = runner::run(&cfg);
            println!(
                "{label:>10} {rate:>7.2} | {:>12.3} {}",
                r.throughput_mops,
                fmt_us(r.p99_us())
            );
            rows.push(format!(
                "threshold,{label},{rate},{:.3},{:.2}",
                r.throughput_mops,
                r.p99_us()
            ));
        }
    }

    // --- 3. Cost functions ---------------------------------------------
    println!("\n[3] Cost functions: allocation on the default workload histogram");
    let mut hist = SizeHistogram::new();
    for _ in 0..99_875 {
        hist.record(427);
    }
    for _ in 0..125 {
        hist.record(250_750);
    }
    println!(
        "{:>20} {:>12} {:>9} {:>9}",
        "cost fn", "small share", "n_small", "n_large"
    );
    for (label, cost_fn) in [
        ("packets", CostFn::Packets),
        ("bytes", CostFn::Bytes),
        ("const+bytes", CostFn::ConstantPlusBytes { constant: 1_000 }),
    ] {
        let mut c = ThresholdController::new(ThresholdMode::Dynamic, cost_fn);
        let d = c.epoch_update(&hist);
        let a = allocate(8, d.small_cost_share);
        println!(
            "{label:>20} {:>12.3} {:>9} {:>9}",
            d.small_cost_share, a.n_small, a.n_large
        );
        rows.push(format!(
            "costfn,{label},,{:.4},{}",
            d.small_cost_share, a.n_large
        ));
    }
    write_csv(
        "ablations",
        "ablation,variant,rate_mops,metric_a,metric_b",
        &rows,
    );
}
