//! The metric tables: every name the benchmark reports, with its unit,
//! its better direction and, for end-to-end metrics, the bound by which
//! it may get worse. `BENCHMARK.json` carries the same tables; a unit
//! test keeps the two identical.

use crate::span::LAYER_SPANS;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// What a user of the store sees. Loaded phase (closed loop, 8
/// outstanding) unless named otherwise. `failed_frac` is not here: the
/// result line's `attempted`/`failed` carry it, and an end-to-end
/// metric must never read 0.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("setup_s", "s", Lower, Some(0.25)),
        def("throughput_ops_s", "1/s", Higher, Some(0.25)),
        def("small_p50_us", "us", Lower, Some(0.25)),
        def("small_p75_us", "us", Lower, Some(0.25)),
        def("large_p50_us", "us", Lower, Some(0.25)),
        def("large_p90_us", "us", Lower, Some(0.25)),
        def("unloaded_small_p50_us", "us", Lower, Some(0.25)),
        def("server_rss_mb", "MB", Lower, Some(0.05)),
    ]
}

/// One number (or a few) per crate on the request path. The first block
/// is read in situ from the live run (server final snapshot, client
/// totals, `/proc`); the second comes from the traced replay.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut defs = vec![
        def("core.small_queue_wait_p50_ns", "ns", Lower, None),
        def("core.small_queue_wait_p99_ns", "ns", Lower, None),
        def("core.small_service_p50_ns", "ns", Lower, None),
        def("core.small_service_p99_ns", "ns", Lower, None),
        def("core.large_queue_wait_p50_ns", "ns", Lower, None),
        def("core.large_queue_wait_p99_ns", "ns", Lower, None),
        def("core.large_service_p50_ns", "ns", Lower, None),
        def("core.large_service_p99_ns", "ns", Lower, None),
        def("core.handoffs_per_op", "ratio", Lower, None),
        def("core.large_route_frac", "ratio", Lower, None),
        def("core.ops_imbalance", "ratio", Lower, None),
        def("core.soft_queue_drops", "count", Lower, None),
        def("core.sheds", "count", Lower, None),
        def("core.plan_threshold_bytes", "bytes", Higher, None),
        def("core.plan_n_small", "count", Higher, None),
        def("core.ingest_copies_per_byte", "ratio", Lower, None),
        def("core.reassembly_evictions", "count", Lower, None),
        def("net.rx_pkts_per_syscall", "ratio", Higher, None),
        def("net.tx_pkts_per_syscall", "ratio", Higher, None),
        def("net.pool_hit_rate", "ratio", Higher, None),
        def("net.pool_steals", "count", Lower, None),
        def("net.tx_dropped", "count", Lower, None),
        def("net.tx_copied_bytes", "bytes", Lower, None),
        def("kv.get_hit_rate", "ratio", Higher, None),
        def("kv.get_retries_per_get", "ratio", Lower, None),
        def("kv.evictions_per_put", "ratio", Lower, None),
        def("kv.evicted_bytes_per_victim", "bytes", Higher, None),
        def("kv.put_failures", "count", Lower, None),
        def("kv.admission_rejects", "count", Lower, None),
        def("kv.accounting_warnings", "count", Lower, None),
        def("kv.mempool_occupancy", "ratio", Lower, None),
        def("kv.mempool_reuse_rate", "ratio", Higher, None),
        def("client.small_p90_us", "us", Lower, None),
        def("client.small_p99_us", "us", Lower, None),
        def("client.small_p999_us", "us", Lower, None),
        def("client.unloaded_large_p50_us", "us", Lower, None),
        def("client.tx_pkts_per_syscall", "ratio", Higher, None),
        def("client.rx_pkts_per_poll", "ratio", Higher, None),
        def("client.reply_copied_bytes_per_op", "bytes", Lower, None),
        def("client.loop_gap_p99_us", "us", Lower, None),
        def("client.loop_gap_max_ms", "ms", Lower, None),
        def("client.failed_frac", "ratio", Lower, None),
        def("host.server_cpu_us_per_op", "us", Lower, None),
        def("host.steal_frac", "ratio", Lower, None),
        def("host.server_invol_ctxsw_per_s", "1/s", Lower, None),
    ];
    for span in LAYER_SPANS {
        defs.push(def(&format!("{}_p50_ns", span.as_str()), "ns", Lower, None));
        defs.push(def(
            &format!("{}_ns_per_op", span.as_str()),
            "ns",
            Lower,
            None,
        ));
    }
    defs.extend([
        def("workload.next_op_p50_ns", "ns", Lower, None),
        def("stats.record_p50_ns", "ns", Lower, None),
        def("replay.ops", "count", Higher, None),
        def("replay.us_per_op", "us", Lower, None),
        def("replay.small_us_per_op", "us", Lower, None),
        def("replay.explained_frac", "ratio", Higher, None),
        def("trace.overhead_frac", "ratio", Lower, None),
    ]);
    defs
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Checks that `values` holds a finite number for every metric of
/// `defs` and nothing else.
pub fn check_complete(defs: &[MetricDef], values: &Values) -> Result<(), String> {
    for d in defs {
        match values.get(&d.name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("metric {} is not finite: {v}", d.name)),
            None => return Err(format!("metric {} was not measured", d.name)),
        }
    }
    match values.keys().find(|k| !defs.iter().any(|d| &d.name == *k)) {
        Some(extra) => Err(format!("metric {extra} is not in the metric table")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use minos_obs::JsonValue;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn assert_table(json: &JsonValue, key: &str, defs: &[MetricDef]) {
        let listed = json.get(key).and_then(JsonValue::as_array).expect(key);
        assert_eq!(listed.len(), defs.len(), "{key} length");
        for (entry, d) in listed.iter().zip(defs) {
            let field = |f: &str| entry.get(f).and_then(JsonValue::as_str).map(str::to_string);
            assert_eq!(field("name").as_deref(), Some(d.name.as_str()));
            assert_eq!(field("unit").as_deref(), Some(d.unit), "{}", d.name);
            assert_eq!(
                field("better").as_deref(),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            let bound = entry
                .get("bound")
                .and_then(JsonValue::as_num)
                .map(|n| n.as_f64());
            assert_eq!(bound, d.bound, "{}", d.name);
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let json = benchmark_json();
        assert_table(&json, "end_to_end", &end_to_end());
        assert_table(&json, "per_layer", &per_layer());
        let workloads = json
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(entry.get("name").and_then(JsonValue::as_str), Some(w.name));
            assert_eq!(entry.get("why").and_then(JsonValue::as_str), Some(w.why));
        }
    }

    #[test]
    fn names_fit_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for d in &all {
            assert!(d.name.len() <= 64, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(&d.name), "duplicate {}", d.name);
        }
        assert!(per_layer().len() <= 128);
        assert!(end_to_end().iter().all(|d| d.bound.unwrap() <= 0.25));
    }

    #[test]
    fn completeness_check_rejects_gaps_and_strangers() {
        let defs = end_to_end();
        let mut values: Values = defs.iter().map(|d| (d.name.clone(), 1.0)).collect();
        assert!(check_complete(&defs, &values).is_ok());
        values.insert("stranger".into(), 1.0);
        assert!(check_complete(&defs, &values).is_err());
        values.remove("stranger");
        values.insert("setup_s".into(), f64::NAN);
        assert!(check_complete(&defs, &values).is_err());
        values.remove("setup_s");
        assert!(check_complete(&defs, &values).is_err());
    }
}
