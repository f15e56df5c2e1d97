//! The Figure 10 scenario in the simulator: the fraction of large
//! requests steps up and back down while Minos re-allocates cores on
//! the fly, with HKH+WS shown for contrast.
//!
//! Run with: `cargo run --release --example dynamic_adaptation`

use minos::sim::{runner, DisciplineKind, RunConfig, SystemConfig};
use minos::workload::{PhaseSchedule, DEFAULT_PROFILE};

fn main() {
    println!("== dynamic workload adaptation (Figure 10 scenario) ==\n");

    // p_L steps 0.125 -> 0.25 -> 0.5 -> 0.75 -> 0.5 -> 0.25 -> 0.125 %
    // with 3-second phases (the paper uses 20 s; the controller adapts
    // within a couple of epochs either way).
    let phase_ns = 3_000_000_000u64;
    let steps_pct = [0.125, 0.25, 0.5, 0.75, 0.5, 0.25, 0.125];
    let schedule = PhaseSchedule::new(steps_pct.iter().map(|&p| (phase_ns, p / 100.0)).collect());
    let total_s = (phase_ns as f64 * steps_pct.len() as f64) / 1e9;

    // The paper drives 2.25 Mops; our calibrated NIC caps at ~2.1 Mops
    // when p_L = 0.75 %, so 2.0 Mops is the equivalent "high load".
    let mut results = Vec::new();
    for system in [
        SystemConfig::paper(DisciplineKind::SizeAware),
        SystemConfig {
            steal: true,
            ..SystemConfig::paper(DisciplineKind::Hkh)
        },
    ] {
        println!(
            "simulating {} for {:.0}s at 2.0 Mops...",
            system.label(),
            total_s
        );
        let mut cfg = RunConfig::new(system, DEFAULT_PROFILE, 2.0);
        cfg.duration_s = total_s;
        cfg.warmup_s = 0.0;
        cfg.schedule = Some(schedule.clone());
        cfg.window_s = 1.0;
        cfg.system.epoch_ns = 500_000_000;
        results.push(runner::run(&cfg));
    }

    println!(
        "\n{:>6} {:>8} | {:>12} {:>12} | {:>11}",
        "t (s)", "pL (%)", "Minos p99us", "HKHWS p99us", "large cores"
    );
    let n = results[0].windows.len().min(results[1].windows.len());
    for i in 0..n {
        let m = &results[0].windows[i];
        let w = &results[1].windows[i];
        let pl = schedule.value_at((m.t_s * 1e9) as u64) * 100.0;
        println!(
            "{:>6.0} {:>8.3} | {:>12.1} {:>12.1} | {:>11}",
            m.t_s, pl, m.p99_us, w.p99_us, m.n_large_cores
        );
    }
    println!(
        "\nNote how the large-core count tracks p_L and Minos' p99 stays \
         orders of magnitude below HKH+WS' during the high-p_L phases."
    );
}
