//! Golden digests of one short simulated point per system.
//!
//! Each run is 0.1 simulated seconds at 1 Mops with 1 % large requests,
//! 20 ms reporting windows and a fixed seed. The digest covers what the
//! figures read: completions, generations, steals, every core's ops and
//! packets, p50/p99 over all requests and over large ones, and each
//! window's large-core count. A changed digest means a changed figure.

use minos_core::config::{AllocationPolicy, ThresholdMode};
use minos_core::dispatch::DisciplineKind;
use minos_sim::{runner, RunConfig, SystemConfig};
use minos_workload::DEFAULT_PROFILE;

fn point(system: SystemConfig) -> RunConfig {
    let mut profile = DEFAULT_PROFILE;
    profile.p_large = 0.01;
    let mut cfg = RunConfig::new(system, profile, 1.0);
    cfg.duration_s = 0.1;
    cfg.warmup_s = 0.02;
    cfg.window_s = 0.02;
    cfg.seed = 7;
    cfg
}

/// FNV-1a over the run's figure-facing results; the panic message
/// spells them out so a re-pin can say what moved.
fn check(cfg: &RunConfig, golden: u64) {
    let r = runner::run(cfg);
    let quantiles = |q: Option<minos_stats::Quantiles>| q.map(|q| (q.p50_us, q.p99_us));
    let fields = (
        r.completed,
        r.generated,
        r.steals,
        r.per_core
            .iter()
            .map(|c| (c.ops, c.packets))
            .collect::<Vec<_>>(),
        quantiles(r.latency),
        quantiles(r.latency_large),
        r.windows
            .iter()
            .map(|w| w.n_large_cores)
            .collect::<Vec<_>>(),
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{fields:?}").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(h, golden, "{}: {h:#x} {fields:?}", r.system);
}

fn kind(kind: DisciplineKind, golden: u64) {
    check(&point(SystemConfig::paper(kind)), golden);
}

#[test]
fn size_aware() {
    kind(DisciplineKind::SizeAware, 0xa5fa_a9b9_5e9b_0053);
}

#[test]
fn size_aware_static_threshold() {
    let mut cfg = point(SystemConfig::paper(DisciplineKind::SizeAware));
    cfg.system.threshold_mode = ThresholdMode::Static(1_456);
    check(&cfg, 0x88b2_48d7_4105_b595);
}

#[test]
fn size_aware_large_steals() {
    let mut cfg = point(SystemConfig::paper(DisciplineKind::SizeAware));
    cfg.system.allocation_policy = AllocationPolicy::LargeSteals;
    check(&cfg, 0x92b5_233f_da8f_08ba);
}

#[test]
fn hkh() {
    kind(DisciplineKind::Hkh, 0xc5be_b609_638d_c446);
}

#[test]
fn hkh_steal() {
    let mut cfg = point(SystemConfig::paper(DisciplineKind::Hkh));
    cfg.system.steal = true;
    // Stealing follows the server's `try_steal`: the longest peer
    // software queue, else a batch from the first peer RX queue in
    // rotation (it was one request from the longest peer RX queue).
    check(&cfg, 0x4334_0e5f_34f8_7d84);
}

#[test]
fn sho() {
    // Clients target all n RX queues, which the dispatch core drains by
    // its schedule (they targeted only the dispatch cores' queues).
    kind(DisciplineKind::Sho { handoff: 1 }, 0x6a97_f830_7a90_ef87);
}

#[test]
fn cfcfs() {
    // Placed at pickup through a software hop to the shared queue (it was
    // an ideal M/G/k queue joined at arrival).
    kind(DisciplineKind::Cfcfs, 0x76eb_acdc_0604_dbb4);
}

#[test]
fn dfcfs() {
    // Placed at pickup through a software hop to the key's owner (it was
    // the owner's RX queue at arrival, at no cost).
    kind(DisciplineKind::Dfcfs, 0xffa5_106f_990f_035f);
}
