//! Figure 10: adaptation to a dynamic workload.
//!
//! p_L steps 0.125 → 0.25 → 0.5 → 0.75 → 0.5 → 0.25 → 0.125 (%) at a
//! fixed arrival rate; the top panel compares the per-second p99 of
//! Minos and HKH+WS, the bottom panel tracks how many cores Minos
//! assigns to large requests.
//!
//! The paper uses 20 s phases over 140 s; the default effort shrinks
//! phases (the controller converges within a couple of 1 s epochs, so
//! the shape is unchanged) — `MINOS_BENCH_FULL=1` runs the full 140 s.

use minos_bench::{banner, by_effort, fmt_us, write_csv};
use minos_sim::{runner, DisciplineKind, RunConfig, SystemConfig};
use minos_workload::{PhaseSchedule, DEFAULT_PROFILE};

fn main() {
    banner(
        "Figure 10",
        "dynamic workload: p99 over time + Minos large-core count",
        "Minos tracks each phase change within ~1-2 epochs and stays 1-2 \
         orders of magnitude below HKH+WS at high p_L; the large-core \
         count follows p_L up (to ~4) and back down",
    );

    let phase_s: f64 = by_effort(2.0, 4.0, 20.0);
    // The paper fixes 2.25 Mops, "high load for pL = 0.75". Our cost
    // model's NIC-bound capacity at pL = 0.75% is ~2.1 Mops, so the
    // equivalent high-but-sustainable operating point here is 2.0.
    let rate = 2.0;
    let steps_pct = [0.125, 0.25, 0.5, 0.75, 0.5, 0.25, 0.125];
    let schedule = PhaseSchedule::new(
        steps_pct
            .iter()
            .map(|&p| ((phase_s * 1e9) as u64, p / 100.0))
            .collect(),
    );
    let total_s = phase_s * steps_pct.len() as f64;

    let mut results = Vec::new();
    for system in [
        SystemConfig::paper(DisciplineKind::SizeAware),
        SystemConfig {
            steal: true,
            ..SystemConfig::paper(DisciplineKind::Hkh)
        },
    ] {
        let mut cfg = RunConfig::new(system, DEFAULT_PROFILE, rate);
        cfg.duration_s = total_s;
        cfg.warmup_s = 0.0; // the whole series is the result
        cfg.schedule = Some(schedule.clone());
        cfg.window_s = by_effort(0.5, 1.0, 1.0);
        cfg.system.epoch_ns = by_effort(250_000_000, 500_000_000, 1_000_000_000);
        results.push(runner::run(&cfg));
    }
    let minos = &results[0];
    let ws = &results[1];

    println!(
        "{:>7} {:>8} | {:>11} {:>11} | {:>12}",
        "t (s)", "pL (%)", "Minos p99", "HKH+WS p99", "large cores"
    );
    let mut rows = Vec::new();
    let n = minos.windows.len().min(ws.windows.len());
    for i in 0..n {
        let w_m = &minos.windows[i];
        let w_w = &ws.windows[i];
        let pl = schedule.value_at((w_m.t_s * 1e9) as u64) * 100.0;
        println!(
            "{:>7.1} {:>8.3} | {} {} | {:>12}",
            w_m.t_s,
            pl,
            fmt_us(w_m.p99_us),
            fmt_us(w_w.p99_us),
            w_m.n_large_cores
        );
        rows.push(format!(
            "{:.2},{:.4},{:.2},{:.2},{}",
            w_m.t_s, pl, w_m.p99_us, w_w.p99_us, w_m.n_large_cores
        ));
    }
    write_csv(
        "fig10_dynamic",
        "t_s,p_large_pct,minos_p99_us,hkhws_p99_us,minos_large_cores",
        &rows,
    );
    println!(
        "\nshape check: the large-core column rises with pL and falls \
         back; Minos' p99 column stays far below HKH+WS' in the \
         high-pL middle phases."
    );
}
