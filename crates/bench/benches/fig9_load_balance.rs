//! Figure 9: per-core load breakdown under p_L ∈ {0.0625, 0.25, 0.75} %.
//!
//! Two views, as in the paper: the share of *operations* each core
//! completes (small cores do far more, large cores far fewer) and the
//! share of *packets* each core handles (roughly uniform — the point of
//! cost-based allocation).

use minos_bench::{banner, by_effort, write_csv};
use minos_sim::{runner, DisciplineKind, RunConfig, SystemConfig};
use minos_workload::profiles::DEFAULT_PROFILE;
use minos_workload::Profile;

fn main() {
    banner(
        "Figure 9",
        "per-core share of ops/s and packets/s (Minos)",
        "ops share differs by ~2 orders of magnitude between small and \
         large cores, packet share is roughly uniform; the number of \
         large cores grows with p_L",
    );

    let duration = by_effort(0.6, 1.5, 5.0);
    let mut rows = Vec::new();
    for pl_pct in [0.0625f64, 0.25, 0.75] {
        let profile = Profile {
            p_large: pl_pct / 100.0,
            ..DEFAULT_PROFILE
        };
        // Moderate load, scaled down a little as pL grows (capacity
        // shrinks with more large bytes), mirroring the paper's use of
        // comparable operating points.
        let rate = match pl_pct {
            x if x < 0.1 => 4.0,
            x if x < 0.5 => 3.0,
            _ => 2.0,
        };
        let mut cfg = RunConfig::new(
            SystemConfig::paper(DisciplineKind::SizeAware),
            profile,
            rate,
        );
        cfg.duration_s = duration;
        cfg.warmup_s = duration / 4.0;
        let r = runner::run(&cfg);

        let total_ops: u64 = r.per_core.iter().map(|c| c.ops).sum();
        let total_pkts: u64 = r.per_core.iter().map(|c| c.packets).sum();
        println!("\n--- pL = {pl_pct}% at {rate} Mops ---");
        println!("{:>6} {:>10} {:>12}", "core", "% ops", "% packets");
        for (core, load) in r.per_core.iter().enumerate() {
            let ops_pct = load.ops as f64 / total_ops.max(1) as f64 * 100.0;
            let pkt_pct = load.packets as f64 / total_pkts.max(1) as f64 * 100.0;
            println!("{core:>6} {ops_pct:>10.3} {pkt_pct:>12.3}");
            rows.push(format!("{pl_pct},{core},{ops_pct:.4},{pkt_pct:.4}"));
        }
    }
    write_csv(
        "fig9_load_balance",
        "p_large_pct,core,ops_pct,packets_pct",
        &rows,
    );
    println!(
        "\nshape check: within each block the last core(s) — the large \
         cores — have tiny ops shares but packet shares comparable to \
         the small cores; more cores look 'large' as pL grows."
    );
}
