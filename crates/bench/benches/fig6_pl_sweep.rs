//! Figure 6: maximum throughput under a p99 SLO (50 µs / 100 µs) as the
//! percentage of large requests p_L sweeps over
//! {0.0625, 0.125, 0.25, 0.5, 0.75} %, reported as Minos' speedup over
//! each baseline.

use minos_bench::{banner, by_effort, write_csv};
use minos_sim::sweep::{max_throughput_under_slo, sho_best_under_slo, SloSearch};
use minos_sim::{DisciplineKind, SystemConfig};
use minos_workload::profiles::{DEFAULT_PROFILE, FIG6_PL_PCT};
use minos_workload::Profile;

fn main() {
    banner(
        "Figure 6",
        "max throughput under SLO vs p_L: Minos speedup over baselines",
        "speedups > 1 everywhere, growing with p_L (up to ~7.4x vs the \
         second-best at p_L=0.75% under the 50us SLO); smaller under the \
         looser 100us SLO",
    );

    let mut search50 = SloSearch::new(50.0);
    let mut search100 = SloSearch::new(100.0);
    let (dur, warm, iters) = by_effort((0.3, 0.08, 2), (0.6, 0.15, 3), (2.0, 0.5, 4));
    for s in [&mut search50, &mut search100] {
        s.duration_s = dur;
        s.warmup_s = warm;
        s.refine_iters = iters;
    }

    let minos_sys = SystemConfig::paper(DisciplineKind::SizeAware);
    let hkh_sys = SystemConfig::paper(DisciplineKind::Hkh);
    let mut ws_sys = hkh_sys.clone();
    ws_sys.steal = true;
    let mut rows = Vec::new();
    for (slo_label, search) in [("50us", &search50), ("100us", &search100)] {
        println!("\n--- SLO: p99 <= {slo_label} ---");
        println!(
            "{:>8} | {:>7} | {:>9} {:>9} {:>9}   (speedup of Minos over ...)",
            "pL (%)", "Minos", "HKH", "HKH+WS", "SHO"
        );
        for &pl_pct in &FIG6_PL_PCT {
            let profile = Profile {
                p_large: pl_pct / 100.0,
                ..DEFAULT_PROFILE
            };
            let minos = max_throughput_under_slo(&minos_sys, profile, search);
            let hkh = max_throughput_under_slo(&hkh_sys, profile, search);
            let ws = max_throughput_under_slo(&ws_sys, profile, search);
            let sho = sho_best_under_slo(profile, search);
            let speedup = |x: f64| if x > 0.0 { minos / x } else { f64::INFINITY };
            println!(
                "{:>8.4} | {:>7.2} | {:>9.2} {:>9.2} {:>9.2}",
                pl_pct,
                minos,
                speedup(hkh),
                speedup(ws),
                speedup(sho)
            );
            rows.push(format!(
                "{},{},{:.3},{:.3},{:.3},{:.3}",
                slo_label, pl_pct, minos, hkh, ws, sho
            ));
        }
    }
    write_csv(
        "fig6_pl_sweep",
        "slo,p_large_pct,minos_mops,hkh_mops,hkhws_mops,sho_mops",
        &rows,
    );
    println!(
        "\nshape check: speedups grow down each column (more large \
         requests hurt the size-unaware designs more), and the 50us \
         table shows larger speedups than the 100us table."
    );
}
