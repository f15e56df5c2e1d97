//! Shared machine-readable report rendering for `minos-server` and
//! `minos-loadgen`.
//!
//! Both binaries print a single JSON object to stdout under `--json`.
//! They used to hand-roll that object with `format!` templates that had
//! drifted into near-duplicates; this module gives them one builder
//! ([`JsonObj`]) and renders the server's exit report straight from a
//! [`minos_obs::Snapshot`], so the legacy field names the CI perf gate
//! asserts (`transport.tx_copied_bytes`, `pool.hit_rate`,
//! `ingest.put_copied_bytes`, ...) and the unified metric registry can
//! never disagree — the report *is* the snapshot, re-keyed.
//!
//! Hand-rolled on purpose: the offline build vendors no serde, and every
//! value here is a number, bool, string or pre-rendered JSON fragment.

use minos_obs::Snapshot;
use minos_stats::Quantiles;
use std::fmt::Write as _;

/// Incremental JSON-object builder. Keys are code-controlled ASCII
/// identifiers (no escaping beyond [`debug_assert!`]); values are typed
/// or pre-rendered fragments.
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        debug_assert!(
            name.bytes().all(|b| b != b'"' && b != b'\\'),
            "report keys are plain identifiers: {name:?}"
        );
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "\"{name}\":");
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, name: &str, v: u64) -> Self {
        self.key(name);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field with `decimals` fractional digits.
    pub fn f64(mut self, name: &str, v: f64, decimals: usize) -> Self {
        self.key(name);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(self.buf, "{v:.decimals$}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, name: &str, v: bool) -> Self {
        self.key(name);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a string field, escaping quotes, backslashes and control
    /// characters.
    pub fn str(mut self, name: &str, v: &str) -> Self {
        self.key(name);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.buf, "\\u{:04x}", c as u32);
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
        self
    }

    /// Adds a pre-rendered JSON fragment (nested object, array, `null`,
    /// or a [`JsonObj::finish`] result) under `name`.
    pub fn raw(mut self, name: &str, fragment: &str) -> Self {
        self.key(name);
        self.buf.push_str(fragment);
        self
    }

    /// Closes the object and returns it.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Latency quantiles as a JSON object (microseconds), `"null"` when
/// nothing completed. Shared so the server and loadgen reports render
/// quantiles identically.
pub fn quantiles_json(q: Option<Quantiles>) -> String {
    match q {
        None => "null".into(),
        Some(q) => JsonObj::new()
            .u64("count", q.count)
            .f64("mean_us", q.mean_us, 3)
            .f64("p50_us", q.p50_us, 3)
            .f64("p90_us", q.p90_us, 3)
            .f64("p95_us", q.p95_us, 3)
            .f64("p99_us", q.p99_us, 3)
            .f64("p999_us", q.p999_us, 3)
            .f64("p9999_us", q.p9999_us, 3)
            .f64("max_us", q.max_us, 3)
            .finish(),
    }
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

fn gauge(snap: &Snapshot, name: &str) -> f64 {
    snap.gauge(name).unwrap_or(0.0)
}

/// Renders `minos-server`'s `--json` exit report from its final registry
/// snapshot.
///
/// The top-level shape is frozen — CI gates parse these exact keys —
/// and every value now comes from the canonical dotted metrics (the
/// legacy key is an alias of the metric named in the comment). The full
/// snapshot rides along under `"metrics"` for consumers that want the
/// per-core histograms and everything else the legacy shape omits.
pub fn server_exit_report(drained: bool, snap: &Snapshot) -> String {
    let transport = JsonObj::new()
        .bool("batched", gauge(snap, "transport.batched") != 0.0)
        .bool("offload", gauge(snap, "transport.offload") != 0.0)
        .u64("tx_trains", counter(snap, "transport.tx_trains"))
        .u64(
            "tx_train_packets",
            counter(snap, "transport.tx_train_packets"),
        )
        .u64("rx_trains", counter(snap, "transport.rx_trains"))
        .u64(
            "rx_train_packets",
            counter(snap, "transport.rx_train_packets"),
        )
        .u64("rx_packets", counter(snap, "transport.rx_packets"))
        .u64("tx_packets", counter(snap, "transport.tx_packets"))
        .u64("tx_dropped", counter(snap, "transport.tx_dropped"))
        .u64("rx_syscalls", counter(snap, "transport.rx_syscalls"))
        .u64("tx_syscalls", counter(snap, "transport.tx_syscalls"))
        .u64(
            "tx_copied_bytes",
            counter(snap, "transport.tx_copied_bytes"),
        )
        .finish();
    let pool = JsonObj::new()
        .u64("hits", counter(snap, "pool.hits"))
        .u64("misses", counter(snap, "pool.misses"))
        .u64("outstanding", gauge(snap, "pool.outstanding") as u64)
        .f64("hit_rate", gauge(snap, "pool.hit_rate"), 6)
        .finish();
    let ingest = JsonObj::new()
        .u64("puts", counter(snap, "store.puts"))
        .u64("put_failures", counter(snap, "store.put_failures"))
        .u64("put_copied_bytes", counter(snap, "ingest.put_copied_bytes"))
        .u64(
            "reassembly_evictions",
            counter(snap, "ingest.reassembly_evictions"),
        )
        .finish();
    let capacity = JsonObj::new()
        .u64("evictions", counter(snap, "store.evictions"))
        .u64("evicted_bytes", counter(snap, "store.evicted_bytes"))
        .u64("expired_keys", counter(snap, "store.expired_keys"))
        .u64(
            "admission_rejects",
            counter(snap, "store.admission_rejects"),
        )
        .u64(
            "accounting_warnings",
            counter(snap, "store.accounting_warnings"),
        )
        .u64("evict_scan_words", counter(snap, "store.evict_scan_words"))
        .u64(
            "evict_passes_tick",
            counter(snap, "store.evict_passes.tick"),
        )
        .u64(
            "evict_passes_reserve",
            counter(snap, "store.evict_passes.reserve"),
        )
        .u64("used_bytes", gauge(snap, "mempool.used_bytes") as u64)
        .f64("occupancy", gauge(snap, "mempool.occupancy"), 6)
        .u64(
            "high_watermark_bytes",
            gauge(snap, "mempool.high_watermark_bytes") as u64,
        )
        .u64(
            "low_watermark_bytes",
            gauge(snap, "mempool.low_watermark_bytes") as u64,
        )
        .finish();
    JsonObj::new()
        .bool("drained", drained)
        .u64("epochs", counter(snap, "engine.epochs"))
        .u64("soft_queue_drops", counter(snap, "engine.soft_queue_drops"))
        .u64("malformed", counter(snap, "engine.malformed"))
        .raw("transport", &transport)
        .raw("pool", &pool)
        .raw("ingest", &ingest)
        .raw("capacity", &capacity)
        .raw("metrics", &snap.metrics_json())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_obs::{JsonValue, MetricValue};

    #[test]
    fn builder_produces_valid_json() {
        let nested = JsonObj::new().u64("inner", 7).finish();
        let s = JsonObj::new()
            .u64("a", 1)
            .f64("b", 0.5, 3)
            .bool("c", true)
            .raw("d", &nested)
            .raw("e", "null")
            .finish();
        let doc = JsonValue::parse(&s).expect("valid JSON");
        assert_eq!(
            doc.get("a").and_then(|v| v.as_num()).unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            doc.get("d")
                .and_then(|v| v.get("inner"))
                .and_then(|v| v.as_num())
                .unwrap()
                .as_u64(),
            Some(7)
        );
    }

    #[test]
    fn exit_report_keeps_legacy_keys() {
        let snap = Snapshot::new(
            0,
            1000,
            vec![
                ("engine.epochs".into(), MetricValue::Counter(5)),
                ("transport.tx_copied_bytes".into(), MetricValue::Counter(0)),
                ("transport.batched".into(), MetricValue::Gauge(1.0)),
                ("pool.hits".into(), MetricValue::Counter(100)),
                ("pool.hit_rate".into(), MetricValue::Gauge(1.0)),
                ("store.puts".into(), MetricValue::Counter(42)),
                ("ingest.put_copied_bytes".into(), MetricValue::Counter(999)),
                ("store.evictions".into(), MetricValue::Counter(13)),
                (
                    "mempool.high_watermark_bytes".into(),
                    MetricValue::Gauge(900.0),
                ),
            ],
        );
        let doc = JsonValue::parse(&server_exit_report(true, &snap)).expect("valid JSON");
        let num = |path: &[&str]| {
            let mut v = &doc;
            for k in path {
                v = v.get(k).unwrap_or_else(|| panic!("missing {k}"));
            }
            v.as_num().unwrap().as_u64().unwrap()
        };
        assert_eq!(num(&["epochs"]), 5);
        assert_eq!(num(&["soft_queue_drops"]), 0, "absent metrics read as 0");
        assert_eq!(num(&["transport", "tx_copied_bytes"]), 0);
        assert_eq!(num(&["pool", "hits"]), 100);
        assert_eq!(num(&["ingest", "puts"]), 42);
        assert_eq!(num(&["ingest", "put_copied_bytes"]), 999);
        // The capacity block is additive; legacy keys stay untouched.
        assert_eq!(num(&["capacity", "evictions"]), 13);
        assert_eq!(num(&["capacity", "high_watermark_bytes"]), 900);
        assert_eq!(num(&["capacity", "expired_keys"]), 0);
        // The whole snapshot rides along under "metrics".
        assert_eq!(num(&["metrics", "ingest.put_copied_bytes", "value"]), 999);
    }
}
