//! Figure 7: maximum throughput under a p99 SLO as the maximum large
//! item size s_L sweeps over {250 KB, 500 KB, 1000 KB}, reported as
//! Minos' speedup over each baseline.

use minos_bench::{banner, by_effort, write_csv};
use minos_sim::sweep::{max_throughput_under_slo, sho_best_under_slo, SloSearch};
use minos_sim::{DisciplineKind, SystemConfig};
use minos_workload::profiles::{DEFAULT_PROFILE, FIG7_SL};
use minos_workload::Profile;

fn main() {
    banner(
        "Figure 7",
        "max throughput under SLO vs s_L: Minos speedup over baselines",
        "speedups > 1 everywhere and growing with s_L (bigger large items \
         block longer); larger under the 50us SLO than under 100us",
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
            "sL (KB)", "Minos", "HKH", "HKH+WS", "SHO"
        );
        for &sl in &FIG7_SL {
            let profile = Profile {
                large_max: sl,
                ..DEFAULT_PROFILE
            };
            let minos = max_throughput_under_slo(&minos_sys, profile, search);
            let hkh = max_throughput_under_slo(&hkh_sys, profile, search);
            let ws = max_throughput_under_slo(&ws_sys, profile, search);
            let sho = sho_best_under_slo(profile, search);
            let speedup = |x: f64| if x > 0.0 { minos / x } else { f64::INFINITY };
            println!(
                "{:>8} | {:>7.2} | {:>9.2} {:>9.2} {:>9.2}",
                sl / 1_000,
                minos,
                speedup(hkh),
                speedup(ws),
                speedup(sho)
            );
            rows.push(format!(
                "{},{},{:.3},{:.3},{:.3},{:.3}",
                slo_label, sl, minos, hkh, ws, sho
            ));
        }
    }
    write_csv(
        "fig7_sl_sweep",
        "slo,s_large_bytes,minos_mops,hkh_mops,hkhws_mops,sho_mops",
        &rows,
    );
}
