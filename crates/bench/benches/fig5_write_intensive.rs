//! Figure 5: throughput vs p99 under the write-intensive 50:50 GET:PUT
//! workload.
//!
//! The bottleneck shifts from the NIC to the CPU (PUT replies carry no
//! payload); Minos pays its profiling overhead (~10 % lower peak than
//! HKH) but keeps the order-of-magnitude p99 advantage.

use minos_bench::{banner, by_effort, fmt_us, write_csv};
use minos_sim::{runner, DisciplineKind, RunConfig, SystemConfig};
use minos_workload::profiles::WRITE_INTENSIVE_PROFILE;

fn main() {
    banner(
        "Figure 5",
        "throughput vs p99, 50:50 GET:PUT",
        "same ordering as Figure 3; higher absolute peaks than 95:5 \
         (tiny PUT replies); Minos saturates ~10% below HKH because \
         profiling costs CPU, which now binds",
    );

    let duration = by_effort(0.4, 0.9, 4.0);
    let loads: Vec<f64> = by_effort(
        vec![1.0, 3.0, 5.0, 6.0, 6.5],
        vec![0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.0, 6.5, 7.0],
        vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5],
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
        "{:>7} | {:>9} {:>9} {:>9} {:>9}   (p99, us)",
        "Mops", "Minos", "HKH+WS", "HKH", "SHO"
    );
    let mut rows = Vec::new();
    for &rate in &loads {
        print!("{rate:>7.2} |");
        for system in &systems {
            let mut cfg = RunConfig::new(system.clone(), WRITE_INTENSIVE_PROFILE, rate);
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
        "fig5_write_intensive",
        "system,offered_mops,throughput_mops,p99_us,kept_up",
        &rows,
    );
    println!(
        "\nshape check: Minos' column goes 'inf' one step before HKH's \
         (profiling overhead under a CPU-bound mix) while staying far \
         lower at every sustainable load."
    );
}
