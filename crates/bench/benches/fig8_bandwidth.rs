//! Figure 8: scalability with network bandwidth via reply sampling.
//!
//! The paper cannot add NIC bandwidth, so it shifts the bottleneck
//! toward the CPU by transmitting only S % of the replies
//! (S ∈ {100, 75, 50, 25}) on the read-intensive p_L = 0.75 % workload,
//! then checks that Minos saturates whichever resource binds.

use minos_bench::{banner, by_effort, fmt_us, write_csv};
use minos_sim::{runner, DisciplineKind, RunConfig, SystemConfig};
use minos_workload::profiles::DEFAULT_PROFILE;
use minos_workload::Profile;

fn main() {
    banner(
        "Figure 8",
        "reply sampling S: throughput vs p99 and NIC utilization (pL=0.75%)",
        "lower S sustains higher throughput (bottleneck moves to the \
         CPU); NIC utilization near-saturates for S in {100,75,50} and \
         drops for S=25 where the CPU binds",
    );

    let profile = Profile {
        p_large: 0.0075,
        ..DEFAULT_PROFILE
    };
    let duration = by_effort(0.4, 0.8, 3.0);
    let loads: Vec<f64> = by_effort(
        vec![0.5, 1.5, 2.5, 3.5, 4.5],
        vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
        vec![
            0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.25, 3.75, 4.25, 4.75, 5.25,
        ],
    );

    let mut rows = Vec::new();
    for s_pct in [100u32, 75, 50, 25] {
        println!("\n--- S = {s_pct}% ---");
        println!(
            "{:>7} {:>12} {:>10} {:>9} {:>9}",
            "Mops", "tput (Mops)", "p99 (us)", "NIC tx %", "kept up"
        );
        for &rate in &loads {
            let mut cfg = RunConfig::new(
                SystemConfig::paper(DisciplineKind::SizeAware),
                profile,
                rate,
            );
            cfg.duration_s = duration;
            cfg.warmup_s = duration / 4.0;
            cfg.system.reply_sampling = s_pct as f64 / 100.0;
            let r = runner::run(&cfg);
            println!(
                "{:>7.2} {:>12.3} {} {:>8.1}% {:>9}",
                rate,
                r.throughput_mops,
                fmt_us(r.p99_us()),
                r.nic_tx_util * 100.0,
                r.kept_up()
            );
            rows.push(format!(
                "{},{:.2},{:.3},{:.2},{:.3},{}",
                s_pct,
                rate,
                r.throughput_mops,
                r.p99_us(),
                r.nic_tx_util,
                r.kept_up()
            ));
        }
    }
    write_csv(
        "fig8_bandwidth",
        "sampling_pct,offered_mops,throughput_mops,p99_us,nic_tx_util,kept_up",
        &rows,
    );
    println!(
        "\nshape check: the highest sustainable load grows as S shrinks; \
         at S=100 the NIC tx column approaches 100% at the knee, at S=25 \
         it stays well below while throughput still caps (CPU-bound)."
    );
}
