//! Figure 3: throughput vs 99th-percentile latency on the default
//! workload (95:5 GET:PUT, p_L = 0.125 %, s_L = 500 KB) for Minos, HKH,
//! HKH+WS and SHO.

use minos_bench::{banner, by_effort, fmt_us, write_csv};
use minos_sim::{runner, DisciplineKind, RunConfig, SystemConfig};
use minos_workload::DEFAULT_PROFILE;

fn main() {
    banner(
        "Figure 3",
        "throughput vs p99 latency, default workload",
        "Minos has the lowest p99 at every load and holds 50us to ~90% of \
         peak; HKH is an order of magnitude worse from ~1 Mops; HKH+WS \
         and SHO start near Minos but deteriorate under load; SHO peaks \
         ~10% lower (handoff-bound)",
    );

    let duration = by_effort(0.4, 0.9, 4.0);
    let loads: Vec<f64> = by_effort(
        vec![0.5, 1.5, 3.0, 4.5, 5.5, 6.0],
        vec![0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0, 5.5, 6.0, 6.3],
        vec![
            0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.25, 5.5, 5.75, 6.0, 6.25, 6.5,
        ],
    );
    let systems = [
        SystemConfig::paper(DisciplineKind::SizeAware),
        SystemConfig {
            steal: true,
            ..SystemConfig::paper(DisciplineKind::Hkh)
        },
        SystemConfig::paper(DisciplineKind::Hkh),
        SystemConfig::paper(DisciplineKind::Sho { handoff: 3 }),
    ];

    println!(
        "{:>7} | {:>9} {:>9} {:>9} {:>9}   (p99, us; '-' = fell behind)",
        "Mops", "Minos", "HKH+WS", "HKH", "SHO"
    );
    let mut rows = Vec::new();
    for &rate in &loads {
        print!("{rate:>7.2} |");
        for system in &systems {
            let mut cfg = RunConfig::new(system.clone(), DEFAULT_PROFILE, rate);
            cfg.duration_s = duration;
            cfg.warmup_s = duration / 4.0;
            let r = runner::run(&cfg);
            let p99 = if r.kept_up() {
                r.p99_us()
            } else {
                f64::INFINITY
            };
            print!(" {}", fmt_us(p99));
            rows.push(format!(
                "{},{:.2},{:.3},{:.2},{}",
                r.system,
                rate,
                r.throughput_mops,
                r.p99_us(),
                r.kept_up()
            ));
        }
        println!();
    }
    write_csv(
        "fig3_default",
        "system,offered_mops,throughput_mops,p99_us,kept_up",
        &rows,
    );
    println!(
        "\nshape check: read columns top-down — Minos stays low the \
         longest; HKH degrades first; SHO hits 'inf' (saturation) at a \
         lower rate than the others."
    );
}
