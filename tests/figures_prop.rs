//! Property tests pinning the `BENCH_fig_*.json` sweep-point schema:
//! for any sweep point, `SweepPoint::parse` inverts
//! `SweepPoint::to_json` on every integer, boolean, and string field
//! exactly, and the JSON rendering is a fixpoint (serialize → parse →
//! serialize reproduces the same bytes), so float truncation to the
//! writer's fixed decimal precision converges after one round instead
//! of drifting. Every committed `BENCH_fig_*.json` point parses and
//! round-trips the same way.

use minos::core::dispatch::DisciplineKind;
use minos::driver::RunSummary;
use minos::figures::{SweepPoint, POLICY};
use minos::obs::JsonValue;
use minos::stats::Quantiles;
use proptest::prelude::*;

fn quantiles_strategy() -> impl Strategy<Value = Option<Quantiles>> {
    let q = (
        any::<u64>(),
        (0u32..100_000_000u32),
        (0u32..100_000_000u32),
        (0u32..100_000_000u32),
        (0u32..100_000_000u32),
    )
        .prop_map(|(count, mean, p50, p99, max)| Quantiles {
            count,
            mean_us: f64::from(mean) / 1e3,
            p50_us: f64::from(p50) / 1e3,
            p90_us: f64::from(p50) / 1e3 + 1.0,
            p95_us: f64::from(p50) / 1e3 + 2.0,
            p99_us: f64::from(p99) / 1e3,
            p999_us: f64::from(p99) / 1e3 + 1.0,
            p9999_us: f64::from(p99) / 1e3 + 2.0,
            max_us: f64::from(max) / 1e3,
        });
    prop_oneof![Just(None), q.prop_map(Some)]
}

fn discipline_names() -> [&'static str; 5] {
    DisciplineKind::ALL.map(DisciplineKind::name)
}

// NO_EVICTION first: classic points keep the historical resume key.
const EVICTIONS: [&str; 3] = ["none", "clock", "size-aware-clock"];

// NO_FAULTS first: clean points keep the historical resume key.
const FAULTS: [&str; 3] = [
    "none",
    "drop=0.01,reorder=8,seed=42",
    "drop=0.02,dup=0.005,delay=200,seed=7",
];

fn point_strategy() -> impl Strategy<Value = SweepPoint> {
    (
        (
            0usize..discipline_names().len(),
            0usize..3,
            (0u32..u32::MAX),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), (0u32..u32::MAX), any::<u64>(), any::<u64>()),
        (
            quantiles_strategy(),
            quantiles_strategy(),
            quantiles_strategy(),
            quantiles_strategy(),
        ),
        (
            0usize..3,
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                (discipline_ix, eviction_ix, rate_mhz, clients, cores),
                (sent, completed, outstanding, errors),
                (zero_loss, behind_us, tx_copied_bytes, reply_copied_bytes),
                (latency_us, latency_small_us, service_latency_us, latency_large_us),
                (fault_ix, hedging, timed_out, hedges_sent, hedge_wins, accounting_warnings),
            )| {
                SweepPoint {
                    policy: POLICY.to_string(),
                    discipline: discipline_names()[discipline_ix].to_string(),
                    eviction: EVICTIONS[eviction_ix].to_string(),
                    summary: RunSummary {
                        // Rates at the writer's 0.1 precision stay exact.
                        offered_rate: f64::from(rate_mhz) / 10.0,
                        duration_s: 2.5,
                        clients,
                        cores,
                        sent,
                        completed,
                        outstanding,
                        errors,
                        achieved_rate: f64::from(rate_mhz) / 20.0,
                        loss_rate: if sent > 0 {
                            outstanding as f64 / sent as f64
                        } else {
                            0.0
                        },
                        zero_loss,
                        behind_max_us: f64::from(behind_us) / 10.0,
                        latency_us,
                        latency_small_us,
                        service_latency_us,
                        latency_large_us,
                        tx_copied_bytes,
                        reply_copied_bytes,
                        timed_out,
                        fault_profile: FAULTS[fault_ix].to_string(),
                        hedging,
                        hedges_sent,
                        hedge_wins,
                        accounting_warnings,
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sweep_point_schema_round_trips(point in point_strategy()) {
        let json = point.to_json();
        let parsed = SweepPoint::parse(&JsonValue::parse(&json).unwrap())
            .expect("every serialized point parses");

        // Integer, boolean, and string fields are exact.
        prop_assert_eq!(&parsed.policy, &point.policy);
        prop_assert_eq!(&parsed.discipline, &point.discipline);
        prop_assert_eq!(&parsed.eviction, &point.eviction);
        prop_assert_eq!(parsed.summary.clients, point.summary.clients);
        prop_assert_eq!(parsed.summary.cores, point.summary.cores);
        prop_assert_eq!(parsed.summary.sent, point.summary.sent);
        prop_assert_eq!(parsed.summary.completed, point.summary.completed);
        prop_assert_eq!(parsed.summary.outstanding, point.summary.outstanding);
        prop_assert_eq!(parsed.summary.errors, point.summary.errors);
        prop_assert_eq!(parsed.summary.zero_loss, point.summary.zero_loss);
        prop_assert_eq!(parsed.summary.tx_copied_bytes, point.summary.tx_copied_bytes);
        prop_assert_eq!(parsed.summary.reply_copied_bytes, point.summary.reply_copied_bytes);
        prop_assert_eq!(
            parsed.summary.latency_us.map(|q| q.count),
            point.summary.latency_us.map(|q| q.count)
        );
        prop_assert_eq!(
            parsed.summary.latency_small_us.is_some(),
            point.summary.latency_small_us.is_some()
        );
        prop_assert_eq!(
            parsed.summary.service_latency_us.is_some(),
            point.summary.service_latency_us.is_some()
        );
        prop_assert_eq!(
            parsed.summary.latency_large_us.is_some(),
            point.summary.latency_large_us.is_some()
        );

        // The --resume identity survives the round trip.
        prop_assert_eq!(parsed.key(), point.key());

        // Serialization is a fixpoint: floats already truncated to the
        // writer's precision re-render byte-identically.
        prop_assert_eq!(parsed.to_json(), json);
    }
}

#[test]
fn committed_figures_parse_and_round_trip() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut files = 0;
    for entry in std::fs::read_dir(root).expect("repo root") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !(name.starts_with("BENCH_fig_") && name.ends_with(".json")) {
            continue;
        }
        files += 1;
        let doc = std::fs::read_to_string(&path).expect("readable");
        let v = JsonValue::parse(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let points = v
            .as_array()
            .unwrap_or_else(|| panic!("{name}: not an array"));
        assert!(!points.is_empty(), "{name}: no points");
        for (i, raw) in points.iter().enumerate() {
            let point =
                SweepPoint::parse(raw).unwrap_or_else(|| panic!("{name}[{i}]: malformed point"));
            assert_eq!(point.policy, POLICY, "{name}[{i}]");
            assert!(
                discipline_names().contains(&point.discipline.as_str()),
                "{name}[{i}]: discipline {}",
                point.discipline
            );
            let json = point.to_json();
            let again = SweepPoint::parse(&JsonValue::parse(&json).unwrap())
                .unwrap_or_else(|| panic!("{name}[{i}]: re-rendered point"));
            assert_eq!(again, point, "{name}[{i}] round-trips");
            assert_eq!(again.to_json(), json, "{name}[{i}] renders a fixpoint");
        }
    }
    assert!(files >= 4, "found {files} committed figure files");
}
