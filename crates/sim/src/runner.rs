//! Run orchestration: the paper's measurement methodology on top of the
//! event loop.

use crate::engine::{CoreLoad, SystemConfig, SystemSim};
use minos_obs::{HistSummary, MetricValue, Snapshot};
use minos_stats::Quantiles;
use minos_workload::{AccessGenerator, Dataset, PhaseSchedule, Profile};

/// Configuration of one simulated run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The server.
    pub system: SystemConfig,
    /// The workload profile (p_L, s_L, GET ratio, skew).
    pub profile: Profile,
    /// Offered load, millions of requests per second.
    pub rate_mops: f64,
    /// Total simulated seconds.
    pub duration_s: f64,
    /// Warm-up (and symmetric cool-down) seconds discarded, mirroring
    /// the paper's "first and last 10 seconds are not included".
    pub warmup_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Dataset scale divisor (1 = the paper's 16 M keys).
    pub dataset_scale: u64,
    /// Optional time-varying p_L schedule (Figure 10).
    pub schedule: Option<PhaseSchedule>,
    /// Reporting-window seconds (0 = no windows).
    pub window_s: f64,
    /// Telemetry snapshot interval in simulated seconds (0 = off);
    /// when set, [`RunResult::snapshots`] holds one [`Snapshot`] per
    /// interval — the simulator's analogue of the live server's
    /// `--stats-interval-ms` timeline.
    pub stats_interval_s: f64,
}

impl RunConfig {
    /// A run of `system` under `profile` at `rate_mops`.
    pub fn new(system: SystemConfig, profile: Profile, rate_mops: f64) -> Self {
        RunConfig {
            system,
            profile,
            rate_mops,
            duration_s: 2.0,
            warmup_s: 0.5,
            seed: 42,
            dataset_scale: 1,
            schedule: None,
            window_s: 0.0,
            stats_interval_s: 0.0,
        }
    }

    /// Shrinks durations for smoke tests / quick sweeps.
    pub fn quick(mut self) -> Self {
        self.duration_s = 0.24;
        self.warmup_s = 0.06;
        self
    }
}

/// One reporting window of a run (Figure 10's time series).
#[derive(Clone, Copy, Debug)]
pub struct WindowStat {
    /// Window start, seconds.
    pub t_s: f64,
    /// 99th percentile latency in the window, µs.
    pub p99_us: f64,
    /// Large cores in the Minos plan at window end.
    pub n_large_cores: usize,
    /// Completions in the window.
    pub completed: u64,
}

/// Results of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The simulated system's label ([`SystemConfig::label`]).
    pub system: String,
    /// Offered load, Mops.
    pub offered_mops: f64,
    /// Achieved throughput over the measurement window, Mops.
    pub throughput_mops: f64,
    /// Overall latency quantiles (µs), if any request completed.
    pub latency: Option<Quantiles>,
    /// Large-request latency quantiles (Figure 4).
    pub latency_large: Option<Quantiles>,
    /// TX-side NIC utilization over the whole run.
    pub nic_tx_util: f64,
    /// RX-side NIC utilization.
    pub nic_rx_util: f64,
    /// Per-core ops/packets (Figure 9).
    pub per_core: Vec<CoreLoad>,
    /// Per-window stats (Figure 10), when windows were enabled.
    pub windows: Vec<WindowStat>,
    /// Requests generated in the measurement window.
    pub generated: u64,
    /// Requests completed in the measurement window.
    pub completed: u64,
    /// Steals ([`SystemConfig::steal`]).
    pub steals: u64,
    /// Periodic telemetry snapshots (simulated clock), when
    /// [`RunConfig::stats_interval_s`] was set.
    pub snapshots: Vec<Snapshot>,
}

impl RunResult {
    /// p99 in µs, infinity when nothing completed (saturated).
    pub fn p99_us(&self) -> f64 {
        self.latency.map_or(f64::INFINITY, |q| q.p99_us)
    }

    /// True when the system kept up with the offered load (the paper's
    /// zero-loss criterion, within a completion tolerance for requests
    /// in flight at the window edge).
    pub fn kept_up(&self) -> bool {
        self.completed as f64 >= self.generated as f64 * 0.995
    }
}

/// Runs one configuration to completion.
pub fn run(config: &RunConfig) -> RunResult {
    let dataset = if config.dataset_scale <= 1 {
        Dataset::paper(config.profile.large_max)
    } else {
        Dataset::paper_scaled(config.dataset_scale, config.profile.large_max)
    };
    let gen = AccessGenerator::new(
        dataset,
        config.profile.p_large,
        config.profile.get_ratio,
        config.profile.zipf_s,
    );
    let window_ns = (config.window_s * 1e9) as u64;
    // The paper's 60 s runs see ~50 controller epochs; short simulated
    // runs must still let the controller converge, so the epoch shrinks
    // with the run (to at most duration/6) unless a dynamic schedule is
    // in play (Figure 10 uses the real 1 s epoch over 140 s).
    let mut system = config.system.clone();
    if config.schedule.is_none() {
        let scaled = ((config.duration_s * 1e9) as u64 / 6).max(10_000_000);
        system.epoch_ns = system.epoch_ns.min(scaled);
    }
    let mut sim = SystemSim::new(
        system,
        gen,
        config.rate_mops,
        config.schedule.clone(),
        window_ns,
        config.seed,
    );
    let total_ns = (config.duration_s * 1e9) as u64;
    let warm_ns = (config.warmup_s * 1e9) as u64;
    let measure_end = total_ns.saturating_sub(warm_ns);
    sim.set_measure_window(warm_ns, measure_end);
    let interval_ns = (config.stats_interval_s * 1e9) as u64;
    let mut snapshots = Vec::new();
    if interval_ns == 0 {
        sim.run_until(total_ns);
    } else {
        // Chunk the event loop at snapshot boundaries so each snapshot
        // reflects the simulated clock, not wall time.
        let mut t = 0u64;
        while t < total_ns {
            t = (t + interval_ns).min(total_ns);
            sim.run_until(t);
            snapshots.push(sim_snapshot(snapshots.len() as u64, t, &sim));
        }
    }

    let span = (measure_end - warm_ns).max(1) as f64;
    let windows = sim
        .windows()
        .iter()
        .enumerate()
        .filter(|(_, w)| w.completed > 0)
        .map(|(i, w)| WindowStat {
            t_s: i as f64 * config.window_s,
            p99_us: w.hist.percentile_us(99.0).unwrap_or(0.0),
            n_large_cores: w.n_large,
            completed: w.completed,
        })
        .collect();

    RunResult {
        system: config.system.label(),
        offered_mops: config.rate_mops,
        throughput_mops: sim.completed as f64 / span * 1e3,
        latency: sim.latency().quantiles(),
        latency_large: sim.latency_large().quantiles(),
        nic_tx_util: sim.tx_utilization(total_ns as f64),
        nic_rx_util: sim.rx_utilization(total_ns as f64),
        per_core: sim.per_core().to_vec(),
        windows,
        generated: sim.generated,
        completed: sim.completed,
        steals: sim.steals(),
        snapshots,
    }
}

/// One telemetry snapshot of the simulator at simulated time `now_ns`,
/// under the same dotted names the live server emits where the concepts
/// coincide (`core.{i}.ops`) and `sim.*` where they are simulator-only.
fn sim_snapshot(seq: u64, now_ns: u64, sim: &SystemSim) -> Snapshot {
    let mut entries = vec![
        (
            "sim.generated".to_string(),
            MetricValue::Counter(sim.generated),
        ),
        (
            "sim.completed".to_string(),
            MetricValue::Counter(sim.completed),
        ),
        ("sim.steals".to_string(), MetricValue::Counter(sim.steals())),
        (
            "latency_ns".to_string(),
            MetricValue::Hist(HistSummary::from_hist(sim.latency().inner())),
        ),
        (
            "latency_large_ns".to_string(),
            MetricValue::Hist(HistSummary::from_hist(sim.latency_large().inner())),
        ),
    ];
    for (i, load) in sim.per_core().iter().enumerate() {
        entries.push((format!("core.{i}.ops"), MetricValue::Counter(load.ops)));
        entries.push((
            format!("core.{i}.packets"),
            MetricValue::Counter(load.packets),
        ));
    }
    Snapshot::new(seq, now_ns / 1_000_000, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_core::dispatch::DisciplineKind::{Hkh, Sho, SizeAware};
    use minos_workload::DEFAULT_PROFILE;

    fn quick(system: SystemConfig, rate: f64) -> RunResult {
        run(&RunConfig::new(system, DEFAULT_PROFILE, rate).quick())
    }

    fn hkh_ws() -> SystemConfig {
        SystemConfig {
            steal: true,
            ..SystemConfig::paper(Hkh)
        }
    }

    #[test]
    fn all_systems_complete_at_low_load() {
        for system in [
            SystemConfig::paper(SizeAware),
            SystemConfig::paper(Hkh),
            SystemConfig::paper(Sho { handoff: 2 }),
            hkh_ws(),
        ] {
            let r = quick(system, 0.5);
            assert!(r.kept_up(), "{}: {}/{}", r.system, r.completed, r.generated);
            assert!(r.latency.is_some());
            assert!(r.p99_us() < 1_000.0, "{}: p99 {}", r.system, r.p99_us());
        }
    }

    #[test]
    fn minos_p99_beats_hkh_at_moderate_load() {
        // The headline claim at 3 Mops (~half of peak): Minos' p99 stays
        // near the small service time; HKH's suffers head-of-line
        // blocking behind ~100 µs large requests.
        let minos = quick(SystemConfig::paper(SizeAware), 3.0);
        let hkh = quick(SystemConfig::paper(Hkh), 3.0);
        assert!(minos.kept_up() && hkh.kept_up());
        assert!(
            minos.p99_us() * 5.0 < hkh.p99_us(),
            "Minos p99 {} vs HKH p99 {}",
            minos.p99_us(),
            hkh.p99_us()
        );
    }

    #[test]
    fn minos_meets_strict_slo_at_high_load() {
        // The paper holds the 50 µs SLO to ~90 % of the ~6.2 Mops peak;
        // our calibration crosses 50 µs near 4.7 Mops (~75 % of peak) —
        // same shape, slightly earlier knee. Probe inside the knee.
        let r = quick(SystemConfig::paper(SizeAware), 4.5);
        assert!(r.kept_up(), "{}/{}", r.completed, r.generated);
        assert!(r.p99_us() <= 50.0, "p99 {}", r.p99_us());
    }

    #[test]
    fn saturation_caps_throughput() {
        // Offered load far beyond the ~6.2 Mops NIC bound: throughput
        // must cap near the bound, not track the offered rate.
        let r = quick(SystemConfig::paper(Hkh), 9.0);
        assert!(
            r.throughput_mops < 7.5,
            "throughput {} should cap near the NIC bound",
            r.throughput_mops
        );
        assert!(!r.kept_up());
    }

    #[test]
    fn nic_utilization_grows_with_load() {
        let lo = quick(SystemConfig::paper(SizeAware), 1.0);
        let hi = quick(SystemConfig::paper(SizeAware), 5.0);
        assert!(
            hi.nic_tx_util > lo.nic_tx_util * 3.0,
            "tx util {} -> {}",
            lo.nic_tx_util,
            hi.nic_tx_util
        );
        assert!(hi.nic_tx_util > 0.5, "high load should load the NIC");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = quick(SystemConfig::paper(SizeAware), 2.0);
        let b = quick(SystemConfig::paper(SizeAware), 2.0);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99_us(), b.p99_us());
    }

    #[test]
    fn ws_steals_at_low_load_but_rarely_at_high_load() {
        let lo = quick(hkh_ws(), 1.0);
        let hi = quick(hkh_ws(), 5.5);
        assert!(lo.steals > 0, "stealing happens at low load");
        // Normalize by completions: stealing fades as idleness vanishes.
        let lo_rate = lo.steals as f64 / lo.completed.max(1) as f64;
        let hi_rate = hi.steals as f64 / hi.completed.max(1) as f64;
        assert!(
            hi_rate < lo_rate,
            "steal rate must fall with load: {lo_rate} -> {hi_rate}"
        );
    }

    #[test]
    fn minos_allocates_one_large_core_on_default_workload() {
        // Paper §6.1: "For this particular workload, it allocates only
        // one core to the large requests." The split follows the size
        // mix, not the load, so a sixth of the paper's rate shows it
        // (and keeps this test out of tier-1's top ten; windows are
        // only recorded when window_s > 0).
        let mut cfg = RunConfig::new(SystemConfig::paper(SizeAware), DEFAULT_PROFILE, 0.5);
        cfg.window_s = 0.25;
        let r = run(&cfg);
        let counts: Vec<usize> = r.windows.iter().map(|w| w.n_large_cores).collect();
        // The measured second past the warm-up, in quarters.
        assert_eq!(counts.len(), 4, "{counts:?}");
        assert!(
            counts.iter().skip(1).all(|&c| c == 1),
            "late windows should settle on one large core: {counts:?}"
        );
    }
}
