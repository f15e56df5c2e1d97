//! SLO-constrained throughput search (Figures 6 and 7).
//!
//! "We measure the maximum throughput achievable under different SLOs on
//! the 99th percentile latency of 10 and 20 times the mean service
//! time, i.e., 50 µsec and 100 µsec" (§6.3). The search ladders the
//! offered load upward and then bisects between the last rate that met
//! the SLO and the first that missed it.

use crate::engine::SystemConfig;
use crate::runner::{run, RunConfig, RunResult};
use minos_core::dispatch::DisciplineKind;
use minos_workload::Profile;

/// Parameters of the SLO search.
#[derive(Clone, Debug)]
pub struct SloSearch {
    /// The SLO on the 99th percentile, µs.
    pub slo_us: f64,
    /// Rate ladder start, Mops.
    pub start_mops: f64,
    /// Rate ladder ceiling, Mops (a bit above any system's capacity).
    pub max_mops: f64,
    /// Ladder step, Mops.
    pub step_mops: f64,
    /// Bisection refinement iterations.
    pub refine_iters: usize,
    /// Per-point run duration (seconds).
    pub duration_s: f64,
    /// Per-point warmup (seconds).
    pub warmup_s: f64,
    /// Seed.
    pub seed: u64,
}

impl SloSearch {
    /// A search for the given SLO with paper-scale bounds.
    pub fn new(slo_us: f64) -> Self {
        SloSearch {
            slo_us,
            start_mops: 0.25,
            max_mops: 8.0,
            step_mops: 0.5,
            refine_iters: 3,
            duration_s: 1.0,
            warmup_s: 0.25,
            seed: 42,
        }
    }

    /// Shrinks per-point runs for smoke tests.
    pub fn quick(mut self) -> Self {
        self.duration_s = 0.12;
        self.warmup_s = 0.03;
        self.refine_iters = 2;
        self.step_mops = 0.75;
        self
    }
}

fn point(system: &SystemConfig, profile: Profile, rate: f64, search: &SloSearch) -> RunResult {
    let mut cfg = RunConfig::new(system.clone(), profile, rate);
    cfg.duration_s = search.duration_s;
    cfg.warmup_s = search.warmup_s;
    cfg.seed = search.seed;
    run(&cfg)
}

fn meets(result: &RunResult, slo_us: f64) -> bool {
    result.kept_up() && result.p99_us() <= slo_us
}

/// The maximum throughput (Mops) at which `system` meets the SLO on the
/// given profile. Returns the *achieved* throughput at the best passing
/// rate (0 if even the lowest rate misses).
pub fn max_throughput_under_slo(
    system: &SystemConfig,
    profile: Profile,
    search: &SloSearch,
) -> f64 {
    let mut best_pass: Option<(f64, f64)> = None; // (offered, achieved)
    let mut first_fail: Option<f64> = None;

    // Ladder.
    let mut rate = search.start_mops;
    while rate <= search.max_mops {
        let r = point(system, profile, rate, search);
        if meets(&r, search.slo_us) {
            best_pass = Some((rate, r.throughput_mops));
        } else {
            first_fail = Some(rate);
            break;
        }
        rate += search.step_mops;
    }

    let Some((mut lo, mut achieved)) = best_pass else {
        return 0.0;
    };
    let mut hi = first_fail.unwrap_or(search.max_mops + search.step_mops);

    // Bisection refinement.
    for _ in 0..search.refine_iters {
        let mid = (lo + hi) / 2.0;
        let r = point(system, profile, mid, search);
        if meets(&r, search.slo_us) {
            lo = mid;
            achieved = r.throughput_mops;
        } else {
            hi = mid;
        }
    }
    achieved
}

/// SHO's best configuration: the paper sweeps 1–3 handoff cores and
/// reports the best per workload.
pub fn sho_best_under_slo(profile: Profile, search: &SloSearch) -> f64 {
    (1..=3)
        .map(|handoff| {
            let sho = SystemConfig::paper(DisciplineKind::Sho { handoff });
            max_throughput_under_slo(&sho, profile, search)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_workload::DEFAULT_PROFILE;

    #[test]
    fn minos_beats_hkh_under_strict_slo() {
        // The paper's headline: under the 50 µs SLO Minos sustains
        // multiples of HKH's throughput on the default workload.
        let search = SloSearch::new(50.0).quick();
        let max =
            |kind| max_throughput_under_slo(&SystemConfig::paper(kind), DEFAULT_PROFILE, &search);
        let minos = max(DisciplineKind::SizeAware);
        let hkh = max(DisciplineKind::Hkh);
        assert!(minos > 3.0, "Minos under 50us: {minos} Mops");
        assert!(
            minos > hkh * 1.5,
            "Minos {minos} vs HKH {hkh} under the strict SLO"
        );
    }

    #[test]
    fn looser_slo_helps_every_system() {
        let strict = SloSearch::new(50.0).quick();
        let loose = SloSearch::new(100.0).quick();
        let hkh = SystemConfig::paper(DisciplineKind::Hkh);
        let mut hkh_ws = hkh.clone();
        hkh_ws.steal = true;
        for system in [hkh, hkh_ws] {
            let s = max_throughput_under_slo(&system, DEFAULT_PROFILE, &strict);
            let l = max_throughput_under_slo(&system, DEFAULT_PROFILE, &loose);
            assert!(
                l >= s,
                "{}: loose {l} must be >= strict {s}",
                system.label()
            );
        }
    }
}
