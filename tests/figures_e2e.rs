//! End-to-end mini-sweep over real UDP loopback: size-aware sharding
//! and the HKH baseline — two disciplines of the one server — serve the
//! same two-rate ladder, and every point carries the schedule-based
//! latency histogram the figures report.

use minos::core::dispatch::DisciplineKind;
use minos::figures::{run_sweep_resuming, SweepConfig, POLICY};
use minos::net::testport::TestPorts;
use std::time::Duration;

// Disjoint from the suites at 9000–9450 and the CI sweep at 9500.
static PORTS: TestPorts = TestPorts::new(26_000, 28_000);

#[test]
fn mini_sweep_two_policies_two_rates() {
    let rates = vec![500.0, 1_000.0];
    let mut cfg = SweepConfig::loopback(0, rates.clone());
    cfg.disciplines = vec![DisciplineKind::SizeAware, DisciplineKind::Hkh];
    cfg.base_port = PORTS.alloc((cfg.disciplines.len() * cfg.cores) as u16);
    cfg.duration = Duration::from_secs(1);
    cfg.keys = 512;
    cfg.large_keys = 4;

    let mut streamed = 0usize;
    let points = run_sweep_resuming(&cfg, &[], |_| streamed += 1);

    assert_eq!(points.len(), 4, "2 disciplines x 2 rates");
    assert_eq!(streamed, points.len(), "progress sees every point");

    for discipline in &cfg.disciplines {
        let of_discipline: Vec<_> = points
            .iter()
            .filter(|p| p.discipline == discipline.name())
            .collect();
        assert_eq!(of_discipline.len(), rates.len());
        // Rates swept in the order configured (ascending here).
        for (point, &rate) in of_discipline.iter().zip(&rates) {
            assert_eq!(point.summary.offered_rate, rate);
            // One engine: every point is labelled with it.
            assert_eq!(point.policy, POLICY);
            assert!(point.summary.sent > 0, "{}: nothing sent", point.discipline);
            // Far below loopback capacity: every request completes.
            assert!(
                point.summary.completed > 0,
                "{} @ {}: nothing completed",
                point.discipline,
                rate
            );
            let q = point
                .summary
                .latency_us
                .expect("schedule-based histogram populated");
            assert!(q.count > 0 && q.p99_us > 0.0);
            let svc = point
                .summary
                .service_latency_us
                .expect("service histogram populated");
            assert_eq!(q.count, svc.count, "same samples in both clocks");
            // Schedule-based latency dominates send-based per sample.
            assert!(q.p99_us >= svc.p99_us - 0.001);
            // Each point's record parses back from its own JSON.
            let parsed = minos::figures::SweepPoint::parse(
                &minos::obs::JsonValue::parse(&point.to_json()).unwrap(),
            )
            .expect("point round-trips");
            assert_eq!(parsed.policy, point.policy);
            assert_eq!(parsed.discipline, point.discipline);
            assert_eq!(parsed.summary.completed, point.summary.completed);
        }
    }

    // The small-class histogram (the shoot-out's verdict metric) is
    // populated wherever small requests completed.
    assert!(points
        .iter()
        .any(|p| p.summary.latency_small_us.is_some_and(|q| q.count > 0)));

    // --resume over the finished sweep re-measures nothing: every
    // (discipline, rate) key is already present, so no server
    // is even bound and the carried points come back verbatim.
    let mut resumed_fresh = 0usize;
    let resumed = run_sweep_resuming(&cfg, &points, |_| resumed_fresh += 1);
    assert_eq!(resumed_fresh, 0, "nothing left to measure");
    assert_eq!(resumed, points);
}
