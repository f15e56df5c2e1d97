//! Telemetry-under-perturbation stress: a concurrent snapshot reader
//! sampling the registry every 10 ms while a mixed workload (small
//! GET/PUT churn punctuated by fragmented large PUTs) hammers a real
//! UDP server must observe a monotone timeline — and the act of
//! snapshotting must not perturb the hot-path invariants the CI perf
//! gate asserts: a zero-copy reply path and an allocation-free RX pool.

use minos_core::server::{MinosServer, ServerConfig};
use minos_driver::RunConfig;
use minos_net::{UdpConfig, UdpTransport};
use minos_obs::Snapshot;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

static PORTS: minos_net::testport::TestPorts = minos_net::testport::TestPorts::new(33_000, 36_900);

const QUEUES: u16 = 2;
const SMALL_KEYS: u64 = 64;
const SMALL_LEN: usize = 512;
const LARGE_LEN: usize = 40_000; // ~28 fragments per large PUT
const OPS: u64 = 2_000;

fn bind_server() -> Arc<UdpTransport> {
    loop {
        let base = PORTS.alloc(QUEUES);
        if let Ok(t) = UdpTransport::bind(UdpConfig::loopback(base, QUEUES)) {
            return Arc::new(t);
        }
    }
}

#[test]
fn snapshots_stay_monotone_and_hot_path_invariants_hold_under_perturbation() {
    let transport = bind_server();
    let mut server = MinosServer::start_with_transport(
        ServerConfig::for_test(QUEUES as usize, 10_000),
        Arc::clone(&transport),
    );
    let registry = server.registry();

    let target = SocketAddrV4::new(Ipv4Addr::LOCALHOST, transport.base_port());
    let run = RunConfig {
        seed: 0xD1CE,
        ..RunConfig::new(target, QUEUES)
    };
    let mut client = run.client(7, false).unwrap().client;

    // Preload the small working set so the GET churn has real payloads.
    for key in 0..SMALL_KEYS {
        client.send_put(key, &vec![(key % 251) as u8; SMALL_LEN], false);
        while client.totals().outstanding() > 16 {
            client.poll();
        }
    }
    assert!(
        client.drain(Duration::from_secs(30)),
        "preload lost replies"
    );

    // Concurrent snapshot reader at a 10 ms cadence — sampling while the
    // hot path is live is the whole point of this test.
    let stop = Arc::new(AtomicBool::new(false));
    let snapshots: Vec<Snapshot> = std::thread::scope(|scope| {
        let sampler = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut snaps = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    snaps.push(registry.snapshot());
                    std::thread::sleep(Duration::from_millis(10));
                }
                // One more after the churn, so even a host that finishes
                // it inside one cadence yields a timeline to check.
                snaps.push(registry.snapshot());
                snaps
            })
        };

        // Perturbed churn: small GET/PUT mix with a fragmented large PUT
        // every 50th op, under a shallow zero-loss window.
        for i in 0..OPS {
            match i % 50 {
                49 => client.send_put(10_000 + i, &vec![3u8; LARGE_LEN], true),
                n if n % 8 == 0 => {
                    client.send_put(i % SMALL_KEYS, &vec![(i % 251) as u8; SMALL_LEN], false)
                }
                _ => client.send_get(i % SMALL_KEYS, false),
            }
            while client.totals().outstanding() > 32 {
                client.poll();
            }
        }
        assert!(client.drain(Duration::from_secs(60)), "churn lost replies");
        stop.store(true, Ordering::Relaxed);
        sampler.join().unwrap()
    });

    let totals = client.totals();
    assert_eq!(totals.outstanding(), 0, "zero loss");
    assert!(server.drain(Duration::from_secs(10)));

    // The sampled timeline — however many snapshots this host's speed
    // allowed — is monotone in sequence and clock.
    assert!(snapshots.len() >= 2, "{} snapshots", snapshots.len());
    for w in snapshots.windows(2) {
        assert!(w[1].seq > w[0].seq, "snapshot seq regressed");
        assert!(
            w[1].elapsed_ms >= w[0].elapsed_ms,
            "snapshot clock regressed"
        );
    }
    // Counters never run backwards across concurrent samples.
    for name in ["transport.rx_packets", "store.puts", "core.0.ops"] {
        for w in snapshots.windows(2) {
            assert!(
                w[1].counter(name).unwrap_or(0) >= w[0].counter(name).unwrap_or(0),
                "{name} regressed between snapshots"
            );
        }
    }

    // The hot-path invariants, read back through the final snapshot.
    let last = registry.snapshot();
    assert_eq!(
        last.counter("transport.tx_copied_bytes")
            .unwrap_or(u64::MAX),
        0,
        "snapshotting must not disturb the zero-copy reply path"
    );
    assert!(
        last.gauge("pool.hit_rate").unwrap_or(0.0) >= 0.99,
        "RX pool stays allocation-free under perturbed churn (hit rate {:?})",
        last.gauge("pool.hit_rate")
    );
    assert_eq!(
        last.gauge("pool.outstanding").unwrap_or(f64::NAN),
        0.0,
        "every RX slot is home after the drain"
    );
    // The per-class decomposition was live while the sampler ran.
    let small = last.hist("core.0.small.service_ns").expect("small hist");
    let large_total: u64 = (0..QUEUES as usize)
        .filter_map(|c| last.hist(&format!("core.{c}.large.queue_wait_ns")))
        .map(|h| h.count)
        .sum();
    assert!(small.count > 0, "small class populated");
    assert!(large_total > 0, "large class populated");
    server.shutdown();
}
