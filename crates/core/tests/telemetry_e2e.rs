//! End-to-end tests of the unified telemetry: snapshots taken against a
//! live threaded server, and the mechanism behind the paper's Figure
//! 5/6 decomposition — size-aware sharding moves every fragment of a
//! large PUT off the RX core, a size-oblivious configuration runs it
//! inline ahead of the small requests behind it.

use minos_core::client::Client;
use minos_core::config::ThresholdMode;
use minos_core::server::{MinosServer, ServerConfig};
use minos_obs::Snapshot;
use minos_wire::message::MSG_HEADER_LEN;
use std::time::Duration;

const SMALL_VALUE: usize = 64;
const LARGE_VALUE: usize = 256 * 1024;

/// Driving a mixed workload populates every layer of one snapshot: the
/// engine counters, the transport collector, the store collector, and
/// the per-core per-class lifecycle histograms — and repeated snapshots
/// form a monotone timeline.
#[test]
fn snapshots_populate_per_core_class_telemetry() {
    let mut server = MinosServer::start(ServerConfig::for_test(2, 10_000));
    let registry = server.registry();
    let mut client = Client::new(&server, 1, 52);

    let mut snaps: Vec<Snapshot> = Vec::new();
    for round in 0..5u64 {
        for i in 0..100u64 {
            client.send_put(round * 100 + i, &[round as u8; SMALL_VALUE], false);
        }
        client.send_put(5_000 + round, &vec![3u8; LARGE_VALUE], true);
        assert!(client.drain(Duration::from_secs(60)), "round {round}");
        snaps.push(registry.snapshot());
    }

    // The timeline is monotone in both sequence number and clock.
    for w in snaps.windows(2) {
        assert!(w[1].seq > w[0].seq, "seq regressed");
        assert!(w[1].elapsed_ms >= w[0].elapsed_ms, "clock regressed");
    }

    let last = snaps.last().unwrap();
    // Every layer reported in: engine, transport, store, ingest.
    assert!(last.counter("transport.rx_packets").unwrap_or(0) > 0);
    assert!(last.counter("store.puts").unwrap_or(0) >= 505);
    assert!(last.counter("ingest.put_copied_bytes").unwrap_or(0) >= 5 * LARGE_VALUE as u64);
    assert!(last.counter("core.0.ops").is_some());
    assert!(last.gauge("plan.threshold_bytes").is_some());

    // Per-core per-class histograms exist for every (core, class) pair,
    // with queue-wait and service-time sample counts in lockstep.
    let mut small_samples = 0u64;
    let mut large_samples = 0u64;
    for core in 0..2 {
        for class in ["small", "large"] {
            let wait = last
                .hist(&format!("core.{core}.{class}.queue_wait_ns"))
                .unwrap_or_else(|| panic!("core.{core}.{class}.queue_wait_ns missing"));
            let service = last
                .hist(&format!("core.{core}.{class}.service_ns"))
                .unwrap_or_else(|| panic!("core.{core}.{class}.service_ns missing"));
            assert_eq!(
                wait.count, service.count,
                "core {core} {class}: every request records both halves"
            );
            match class {
                "small" => small_samples += wait.count,
                _ => large_samples += wait.count,
            }
        }
    }
    assert!(
        small_samples >= 500,
        "500 small PUTs recorded ({small_samples})"
    );
    // Large PUTs record one sample per fragment (each fragment is one
    // unit of handed-off work), so 5 multi-fragment PUTs yield far more
    // than 5 samples.
    assert!(
        large_samples >= 5,
        "large class populated ({large_samples})"
    );

    // Service time is real work: the distribution has non-zero mass.
    let small_service = last.hist("core.0.small.service_ns").unwrap();
    let small_service_1 = last.hist("core.1.small.service_ns").unwrap();
    assert!(
        small_service.p99.max(small_service_1.p99) > 0,
        "small service p99 is non-zero"
    );
    server.shutdown();
}

/// Large value used for the sharding comparison: a PUT of it is several
/// hundred fragments, each one a unit of large-class work.
const HUGE_VALUE: usize = 1024 * 1024;
const HUGE_PUTS: u64 = 16;

/// What one mixed run left in the server's telemetry.
struct MixedRun {
    /// Queue-wait samples per execution class, summed over cores.
    small_samples: u64,
    large_samples: u64,
    /// Requests and fragments pushed to another core's software queue.
    handoffs: u64,
    soft_queue_drops: u64,
}

/// One mixed run at a fixed threshold: [`HUGE_PUTS`] huge PUTs, each
/// followed by a small GET, all sent to queue 0.
fn run_mixed(threshold: u64) -> MixedRun {
    let mut config = ServerConfig::for_test(2, 10_000);
    config.minos.threshold_mode = ThresholdMode::Static(threshold);
    let mut server = MinosServer::start(config);
    let mut client = Client::new(&server, 1, 53).with_target_queues(0..1);

    for i in 0..20u64 {
        client.send_put(i, &[1u8; SMALL_VALUE], false);
    }
    assert!(client.drain(Duration::from_secs(60)), "warmup");

    for round in 0..HUGE_PUTS {
        client.send_put(9_100 + round, &vec![2u8; HUGE_VALUE], true);
        client.send_get(round % 20, false);
        assert!(client.drain(Duration::from_secs(60)), "round {round}");
    }

    let snap = server.registry().snapshot();
    let samples = |class: &str| -> u64 {
        (0..2)
            .filter_map(|c| snap.hist(&format!("core.{c}.{class}.queue_wait_ns")))
            .map(|h| h.count)
            .sum()
    };
    let run = MixedRun {
        small_samples: samples("small"),
        large_samples: samples("large"),
        handoffs: (0..2)
            .filter_map(|c| snap.counter(&format!("core.{c}.handoffs")))
            .sum(),
        soft_queue_drops: snap.counter("engine.soft_queue_drops").unwrap_or(0),
    };
    server.shutdown();
    run
}

/// The mechanism behind the paper's Figures 5/6, as properties of the
/// server's own telemetry: with sharding on (threshold below the large
/// size) every fragment of every large PUT leaves the RX core through a
/// software-queue handoff, so the small requests behind it never wait
/// for its ingest; with sharding effectively off (threshold above every
/// size) nothing is handed off and everything runs inline on the RX
/// core. Both runs record both execution classes. How much queue wait
/// the handoff saves is a timing, and depends on the host: it is
/// measured by the benchmark (`large_heavy`'s small-class latency and
/// `core.small_queue_wait_*`), not asserted here.
#[test]
fn sharding_hands_off_every_large_fragment() {
    let fragments_per_put = u64::from(minos_wire::packets_for_payload(MSG_HEADER_LEN + HUGE_VALUE));
    assert!(fragments_per_put > 700);

    let sharded = run_mixed(4_096);
    assert_eq!(sharded.soft_queue_drops, 0);
    assert_eq!(
        sharded.handoffs,
        HUGE_PUTS * fragments_per_put,
        "one handoff per large-PUT fragment, none for the small requests"
    );
    assert_eq!(
        sharded.large_samples, sharded.handoffs,
        "every handed-off fragment ran as large-class work"
    );
    assert!(sharded.small_samples >= 20 + HUGE_PUTS);

    let unsharded = run_mixed(1 << 30);
    assert_eq!(unsharded.handoffs, 0, "threshold above every size");
    assert_eq!(
        unsharded.large_samples,
        HUGE_PUTS * fragments_per_put,
        "fragments still count as large-class work, run inline"
    );
    assert!(unsharded.small_samples >= 20 + HUGE_PUTS);
}
