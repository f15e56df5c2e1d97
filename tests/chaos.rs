//! Chaos end-to-end: a real UDP Minos server with clients behind the
//! deterministic fault injector, recovering through retries and hedged
//! requests.
//!
//! The contracts pinned here:
//!
//! * **Zero lost acknowledged writes** — every PUT the server answered
//!   `Ok` is readable by a follow-up GET, no matter what the injector
//!   did to the packets in between (drop, duplicate, reorder).
//! * **Honest accounting under faults** — the client's counter identity
//!   `sent == completed + outstanding + timed_out` holds against the
//!   actual pending-table size, and a drained run leaves nothing
//!   outstanding.
//! * **Hedging recovers the small-class tail** — with the hedge delay
//!   far below the retry timeout, a dropped small request is recovered
//!   by its hedge copy (`hedge_wins > 0`) and the small-class p99 stays
//!   well under the retry timeout that a retry-only client would pay.
//! * **The shed valve protects without corrupting** — past the
//!   watermark, large PUTs bounce with `Overloaded` (never partially
//!   applied), small traffic still completes, and `dispatch.sheds`
//!   tells the story.

use minos::core::client::{Client, Completion, HedgePolicy, RetryPolicy};
use minos::core::config::ThresholdMode;
use minos::core::server::{MinosServer, ServerConfig};
use minos::driver::{DriverClient, RunConfig};
use minos::net::testport::TestPorts;
use minos::net::{FaultProfile, Transport, UdpConfig, UdpTransport};
use minos::wire::message::ReplyStatus;
use std::collections::{HashMap, HashSet};
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::Arc;
use std::time::Duration;

// Disjoint from the suites at 9000–9450, the CI sweep at 9500, the
// stress suite at 21000–24900, and figures_e2e at 26000–28000.
static PORTS: TestPorts = TestPorts::new(28_100, 29_900);

const QUEUES: u16 = 2;

fn bind_server(num_queues: u16) -> Arc<UdpTransport> {
    loop {
        let base = PORTS.alloc(num_queues);
        if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(base, num_queues)) {
            return Arc::new(t);
        }
    }
}

/// A client over its own UDP socket, behind the fault injector when
/// `fault` is set, with retry + hedging dialed for the chaos runs: the
/// hedge delay (<= 3 ms) sits far below the retry timeout (40 ms), so a
/// dropped small request is recovered by its hedge long before the
/// retransmit path would fire.
fn chaos_client(server: &UdpTransport, id: u16, fault: Option<FaultProfile>) -> DriverClient {
    let hedge = HedgePolicy {
        percentile: 99.0,
        min_delay: Duration::from_micros(500),
        max_delay: Duration::from_millis(3),
    };
    let target = SocketAddrV4::new(Ipv4Addr::LOCALHOST, server.base_port());
    let run = RunConfig {
        seed: 0x00C1_1A05,
        retry: Some(RetryPolicy::new(Duration::from_millis(40), 64)),
        hedge: fault.map(|_| hedge),
        fault,
        ..RunConfig::new(target, QUEUES)
    };
    run.client(id, true).unwrap()
}

/// The injected weather for the roundtrip runs: ~2% loss, occasional
/// duplicates, and a 4-deep reorder window, in both directions.
fn chaos_profile() -> FaultProfile {
    FaultProfile::parse("drop=0.02,dup=0.005,reorder=4,seed=7").unwrap()
}

/// Polls `client` until fewer than `cap` requests are in flight,
/// folding completions into `sink`.
fn throttle(client: &mut Client, cap: u64, sink: &mut Vec<Completion>) {
    while client.totals().outstanding() > cap {
        sink.extend(client.poll());
    }
}

/// Like [`Client::drain`] but keeps every completion —
/// `Client::drain` polls internally and discards them.
fn drain_collect(client: &mut Client, timeout: Duration, sink: &mut Vec<Completion>) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while client.totals().outstanding() > 0 {
        sink.extend(client.poll());
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::hint::spin_loop();
    }
    true
}

/// The full chaos roundtrip: unique-key small PUTs plus a handful of
/// multi-fragment large PUTs through the injector, then a GET for every
/// acknowledged write.
#[test]
fn chaos_roundtrip_batched_syscalls() {
    const SMALL_PUTS: u64 = 600;
    const LARGE_PUTS: u64 = 8;
    const SMALL_LEN: usize = 120;
    const LARGE_LEN: usize = 4_000; // > MAX_FRAG_CHUNK: fragments on the wire

    let transport = bind_server(QUEUES);
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(QUEUES as usize, 10_000),
        Arc::clone(&transport),
    );
    let registry = server.registry();
    let chaos = chaos_client(&transport, 1, Some(chaos_profile()));
    let (mut client, fault) = (chaos.client, chaos.fault.expect("a fault layer"));

    // ---- Phase 1: writes through the weather. ----
    let mut completions = Vec::new();
    for key in 0..SMALL_PUTS {
        client.send_put(key, &[(key % 251) as u8; SMALL_LEN], false);
        throttle(&mut client, 64, &mut completions);
    }
    for key in 1_000..1_000 + LARGE_PUTS {
        client.send_put(key, &vec![(key % 251) as u8; LARGE_LEN], true);
        throttle(&mut client, 8, &mut completions);
    }
    assert!(
        drain_collect(&mut client, Duration::from_secs(20), &mut completions),
        "writes must drain through retries"
    );

    let acked: HashMap<u64, ReplyStatus> = completions.iter().map(|c| (c.key, c.status)).collect();
    assert_eq!(
        acked.len() as u64,
        SMALL_PUTS + LARGE_PUTS,
        "every unique key completed exactly once"
    );
    assert!(
        acked.values().all(|&s| s == ReplyStatus::Ok),
        "no spurious error replies on a healthy store"
    );

    // Honest accounting: the counter identity holds against the actual
    // pending table, and nothing was abandoned (the retry budget is far
    // past what 2% loss can exhaust).
    let totals = client.totals();
    assert_eq!(totals.timed_out, 0, "retry budget must absorb 2% loss");
    assert_eq!(
        totals.sent,
        totals.completed + totals.outstanding() + totals.timed_out,
        "accounting identity"
    );
    assert_eq!(totals.outstanding(), client.pending_len());
    assert_eq!(totals.outstanding(), 0, "drained means empty table");

    // The injector actually injected, and the recovery machinery ran:
    // hedges fired and at least one hedge copy beat its original (a
    // dropped original makes that certain).
    let injected = fault.fault_stats();
    assert!(
        injected.rx_dropped + injected.tx_dropped > 0,
        "{injected:?}"
    );
    assert!(totals.hedges_sent > 0, "hedges must fire under loss");
    assert!(totals.hedge_wins > 0, "a dropped original's hedge must win");
    assert!(
        totals.retransmits + totals.hedges_sent >= totals.hedge_wins,
        "wins are a subset of recovery sends"
    );

    // Hedging recovered the small-class tail: dropped small requests
    // were answered by their ~3 ms hedges, not by 40 ms retransmits.
    let small = client
        .latency_small()
        .quantiles()
        .expect("small completions recorded");
    assert!(
        small.p99_us < 35_000.0,
        "small-class p99 {}us should sit well under the 40ms retry timeout",
        small.p99_us
    );

    // ---- Phase 2: every acknowledged write is readable. ----
    let mut reads = Vec::new();
    for &key in acked.keys() {
        client.send_get(key, key >= 1_000);
        throttle(&mut client, 64, &mut reads);
    }
    assert!(
        drain_collect(&mut client, Duration::from_secs(20), &mut reads),
        "reads must drain through retries"
    );
    let read_ok: HashSet<u64> = reads
        .iter()
        .filter(|c| c.status == ReplyStatus::Ok)
        .map(|c| c.key)
        .collect();
    for &key in acked.keys() {
        assert!(
            read_ok.contains(&key),
            "acked write {key} lost — GET did not come back Ok"
        );
    }

    // Bounded pools: the injector's hold buffers emptied with the run
    // (quiescence grace flushes reorder holds) and the RX pool got all
    // its buffers back except what the hold may still pin.
    let mut metrics = Vec::new();
    fault.collect_metrics(&mut metrics);
    let held = metrics
        .iter()
        .find_map(|(name, v)| (name == "fault.held").then(|| v.as_gauge()))
        .flatten()
        .expect("fault.held gauge exported");
    assert!(held < 64.0, "hold buffers must not accumulate: {held}");
    assert!(
        metrics.iter().any(|(name, _)| name == "fault.rx_dropped"),
        "fault.* counters exported through collect_metrics"
    );

    // The dispatch valve's counter is live in the server snapshot even
    // when nothing sheds (this run never crossed a watermark).
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("dispatch.sheds"), Some(0));

    let drained = server.drain(Duration::from_secs(5));
    server.shutdown();
    assert!(drained);
}

/// The overload valve: with a 1-deep watermark and a burst of large
/// PUTs, placements find the large queue occupied and shed with
/// `Overloaded`. A shed PUT is never partially applied, the client
/// counts the back-pressure, and small traffic keeps completing.
#[test]
fn shed_valve_bounces_large_puts_cleanly() {
    const LARGE: u64 = 400;
    let transport = bind_server(QUEUES);
    let mut config = ServerConfig::for_test(QUEUES as usize, 10_000);
    // A fixed threshold makes "large" deterministic for the assert, and
    // the 1-deep watermark makes collisions in a burst unavoidable.
    config.minos.threshold_mode = ThresholdMode::Static(512);
    config.minos.shed_watermark = 1;
    let mut server = MinosServer::start_with_transport(config, Arc::clone(&transport));
    let registry = server.registry();
    let mut client = chaos_client(&transport, 2, None).client;

    // Burst single-fragment large PUTs (1 KiB > threshold) at unique
    // keys; the tight loop keeps the large queue pressurized.
    let mut completions = Vec::new();
    for key in 0..LARGE {
        client.send_put(key, &vec![7u8; 1_024], false);
        throttle(&mut client, 128, &mut completions);
    }
    assert!(drain_collect(
        &mut client,
        Duration::from_secs(10),
        &mut completions
    ));

    let totals = client.totals();
    let sheds = registry
        .snapshot()
        .counter("dispatch.sheds")
        .expect("dispatch.sheds registered");
    assert!(sheds > 0, "a 1-deep watermark must shed under a burst");
    assert!(
        totals.overloaded > 0,
        "the client must see the Overloaded replies"
    );
    assert!(
        sheds >= totals.overloaded,
        "every Overloaded reply stems from a shed"
    );

    // No partial application: a shed key reads back NotFound, an acked
    // key reads back Ok. The retry policy never resends either — an
    // Overloaded reply is a completion, not a loss.
    let shed_keys: Vec<u64> = completions
        .iter()
        .filter(|c| c.status == ReplyStatus::Overloaded)
        .map(|c| c.key)
        .take(4)
        .collect();
    let acked_keys: Vec<u64> = completions
        .iter()
        .filter(|c| c.status == ReplyStatus::Ok)
        .map(|c| c.key)
        .take(4)
        .collect();
    assert!(!shed_keys.is_empty() && !acked_keys.is_empty());
    // One GET in flight at a time: a GET of a 1 KiB value is itself a
    // large-class request, and a burst of those would (correctly) shed
    // against the 1-deep watermark. Serial reads see an empty queue.
    let mut reads = Vec::new();
    for &key in shed_keys.iter().chain(&acked_keys) {
        client.send_get(key, false);
        assert!(drain_collect(
            &mut client,
            Duration::from_secs(5),
            &mut reads
        ));
    }
    let verdict: HashMap<u64, ReplyStatus> = reads.iter().map(|c| (c.key, c.status)).collect();
    for key in &shed_keys {
        assert_eq!(
            verdict.get(key),
            Some(&ReplyStatus::NotFound),
            "shed PUT {key} must not have been applied"
        );
    }
    for key in &acked_keys {
        assert_eq!(
            verdict.get(key),
            Some(&ReplyStatus::Ok),
            "acked PUT {key} must be readable"
        );
    }

    // The small class rides through: a sub-threshold PUT completes Ok
    // even while the valve is armed.
    client.send_put(9_999, b"small survives", false);
    assert!(client.drain(Duration::from_secs(5)));
    let small_ok = client.totals();
    assert!(small_ok.completed > totals.completed);

    let drained = server.drain(Duration::from_secs(5));
    server.shutdown();
    assert!(drained);
}
