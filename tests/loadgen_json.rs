//! `minos-loadgen --json` against an in-process server over real UDP:
//! the report is the run's `RunSummary` (the schema every sweep point
//! shares) plus `metrics`, `churn`, `server_stats` and `per_client`.
//! `tools/gate.py` reads these keys, so their set is pinned here rather
//! than left for CI to notice.

use minos::core::server::{MinosServer, ServerConfig};
use minos::driver::RunSummary;
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
    offered_rate duration_s clients cores sent completed outstanding timed_out errors \
    fault_profile hedging hedges_sent hedge_wins accounting_warnings achieved_rate \
    loss_rate zero_loss behind_max_us latency_us latency_small_us service_latency_us \
    latency_large_us tx_copied_bytes reply_copied_bytes metrics churn server_stats per_client";

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

    // The summary parses with the function `SweepPoint::parse` uses.
    let s = RunSummary::parse(&report).expect("the report carries a run summary");
    assert_eq!(s.sent, s.completed + s.outstanding + s.timed_out);
    assert_eq!(s.accounting_warnings, 0);
    assert!(s.zero_loss);
    assert_eq!((s.clients, s.cores), (2, u64::from(QUEUES)));

    // No value twice: the summary's counters are not repeated under
    // `metrics`, which holds the rest under the server's names.
    let metrics = report.get("metrics").and_then(|m| m.as_obj()).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    for repeated in [
        "client.sent",
        "client.completed",
        "transport.tx_copied_bytes",
    ] {
        assert!(!names.contains(&repeated), "{repeated} is a summary field");
    }
    for canonical in ["transport.tx_packets", "pool.hit_rate", "client.puts_sent"] {
        assert!(names.contains(&canonical), "{canonical} missing");
    }
    let per_client = report.get("per_client").and_then(|v| v.as_array()).unwrap();
    assert_eq!(per_client.len(), 2, "one entry per client thread");
}
