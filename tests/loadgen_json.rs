//! `minos-loadgen --json` against an in-process server over real UDP:
//! the report's top-level keys are the ones `ci.yml` and `tools/gate_*.py`
//! read, so their set is pinned here rather than left for CI to notice.

use minos::core::server::{MinosServer, ServerConfig};
use minos::net::testport::TestPorts;
use minos::net::{UdpConfig, UdpTransport};
use minos::obs::JsonValue;
use std::process::Command;
use std::sync::Arc;

// Disjoint from every other suite's range.
static PORTS: TestPorts = TestPorts::new(41_600, 42_000);

const QUEUES: u16 = 2;

/// In order, as the report prints them.
const TOP_LEVEL_KEYS: &str = "\
    offered_rate clients duration_s elapsed_s achieved_rate max_scheduling_lag_us sent \
    completed errors retransmits outstanding timed_out hedging hedges_sent hedge_wins \
    wasted_replies overloaded accounting_warnings puts_sent put_value_bytes zero_loss \
    latency_us latency_large_us service_latency_us transport coalescing pool client fault churn \
    metrics server_stats per_client";

#[test]
fn json_report_keeps_its_top_level_keys() {
    let (base, transport) = loop {
        let base = PORTS.alloc(QUEUES);
        if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(base, QUEUES)) {
            break (base, Arc::new(t));
        }
    };
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(QUEUES as usize, 4_096),
        transport,
    );
    let out = Command::new(env!("CARGO_BIN_EXE_minos-loadgen"))
        .args(["--target", &format!("127.0.0.1:{base}")])
        .args(["--queues", &QUEUES.to_string(), "--clients", "2"])
        .args(["--rate", "2000", "--duration", "1"])
        .args(["--keys", "500", "--large-keys", "4", "--s-large", "20000"])
        .arg("--json")
        .output()
        .expect("run minos-loadgen");
    server.shutdown();
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "loadgen failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    let report = JsonValue::parse(&stdout).expect("stdout is one JSON report");
    let keys: Vec<&str> = report
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, TOP_LEVEL_KEYS.split_whitespace().collect::<Vec<_>>());
    let num = |k: &str| report.get(k).and_then(|v| v.as_num()?.as_u64()).unwrap();
    assert_eq!(
        num("sent"),
        num("completed") + num("outstanding") + num("timed_out")
    );
    assert_eq!(num("accounting_warnings"), 0);
    assert_eq!(report.get("zero_loss"), Some(&JsonValue::Bool(true)));
    let per_client = report.get("per_client").and_then(|v| v.as_array()).unwrap();
    assert_eq!(per_client.len(), 2, "one entry per client thread");
}
